package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestSwitchCostSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	r, err := SwitchCostSweepCtx(context.Background(), cfg, "DC")
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series["blocked"]
	if len(pts) != 10 {
		t.Fatalf("blocked points = %d", len(pts))
	}
	// Cheaper switches must not hurt: gain at cost 1 >= gain at cost 10.
	if pts[0].Gain < pts[len(pts)-1].Gain {
		t.Errorf("gain(cost=1) %.3f < gain(cost=10) %.3f", pts[0].Gain, pts[len(pts)-1].Gain)
	}
	// Even a free-ish switch does not reach the interleaved reference
	// (the blocked scheme still exposes short dependency stalls).
	ref := r.Series["interleaved (reference)"][0].Gain
	if pts[0].Gain >= ref {
		t.Errorf("blocked at cost 1 (%.3f) should stay below interleaved (%.3f)", pts[0].Gain, ref)
	}
	if out := FormatSweep(r); !strings.Contains(out, "flush cost") {
		t.Error("sweep formatting broken")
	}
}

func TestContextCountSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	r, err := ContextCountSweepCtx(context.Background(), cfg, "DC")
	if err != nil {
		t.Fatal(err)
	}
	ipts := r.Series["interleaved"]
	if len(ipts) != 3 {
		t.Fatalf("interleaved points = %d", len(ipts))
	}
	// More contexts should not reduce interleaved throughput on the
	// memory-bound workload.
	if ipts[1].Gain < ipts[0].Gain*0.9 {
		t.Errorf("4-context gain %.3f collapsed vs 2-context %.3f", ipts[1].Gain, ipts[0].Gain)
	}
}

func TestMSHRSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	r, err := MSHRSweepCtx(context.Background(), cfg, "DC")
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series["interleaved"]
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// One miss register serializes the contexts' misses; four should be
	// clearly better.
	if pts[2].Gain <= pts[0].Gain {
		t.Errorf("4 MSHRs (%.3f) should beat 1 MSHR (%.3f)", pts[2].Gain, pts[0].Gain)
	}
}

func TestRemoteLatencySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickMPConfig()
	r, err := RemoteLatencySweepCtx(context.Background(), cfg, "ocean")
	if err != nil {
		t.Fatal(err)
	}
	ipts := r.Series["interleaved"]
	if len(ipts) != 4 {
		t.Fatalf("points = %d", len(ipts))
	}
	for i, pt := range ipts {
		bl := r.Series["blocked"][i]
		if pt.Gain < bl.Gain*0.85 {
			t.Errorf("scale %s: interleaved %.3f well below blocked %.3f", pt.Label, pt.Gain, bl.Gain)
		}
	}
}

func TestIssueWidthSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	r, err := IssueWidthSweepCtx(context.Background(), cfg, "R1")
	if err != nil {
		t.Fatal(err)
	}
	single := r.Series["single"]
	inter := r.Series["interleaved (4 ctx)"]
	if len(single) != 3 || len(inter) != 3 {
		t.Fatalf("points = %d/%d", len(single), len(inter))
	}
	// The paper's §7 thesis (and the SMT result it prefigures): a lone
	// thread cannot use the extra issue slots as well as multiple
	// contexts can — interleaving's advantage grows with width.
	gapW1 := inter[0].Gain - single[0].Gain
	gapW2 := inter[1].Gain - single[1].Gain
	if gapW2 <= gapW1*0.8 {
		t.Errorf("width-2 gap %.3f should not shrink much below width-1 gap %.3f", gapW2, gapW1)
	}
	// Wider single-context issue must not hurt.
	if single[1].Gain < single[0].Gain*0.95 {
		t.Errorf("dual issue hurt the single context: %.3f vs %.3f", single[1].Gain, single[0].Gain)
	}
}

func TestPrefetchComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	cfg.Workloads = []string{"DC"}
	r, err := RunPrefetchComparisonCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 4 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	inter, _ := r.Cell("DC", "interleaved 4 ctx")
	stride, _ := r.Cell("DC", "single + stride prefetch")
	// Both must help a memory-bound workload; the paper's thesis is that
	// multiple contexts tolerate what prefetching cannot always predict.
	if stride.Gain <= 1.0 {
		t.Errorf("stride prefetch gain = %.2f, want > 1 on DC", stride.Gain)
	}
	if inter.Gain <= 1.0 {
		t.Errorf("interleaved gain = %.2f, want > 1 on DC", inter.Gain)
	}
	combined, _ := r.Cell("DC", "interleaved 4 ctx + stride")
	if combined.Gain < inter.Gain*0.9 {
		t.Errorf("combining prefetch hurt interleaving badly: %.2f vs %.2f", combined.Gain, inter.Gain)
	}
	if out := FormatPrefetchComparison(r); !strings.Contains(out, "stride") {
		t.Error("formatting broken")
	}
}

func TestResponseExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultResponseConfig()
	cfg.Bursts = 12
	r, err := RunResponseCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 3 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	single := r.Cells[0]
	inter := r.Cells[2]
	// The §5.1 claim: the resident foreground context responds far
	// faster than the timeshared single-context machine.
	if inter.Mean*3 > single.Mean {
		t.Errorf("interleaved response %.0f not clearly better than timeshared %.0f",
			inter.Mean, single.Mean)
	}
	if out := FormatResponse(r); !strings.Contains(out, "Interactive response") {
		t.Error("formatting broken")
	}
}

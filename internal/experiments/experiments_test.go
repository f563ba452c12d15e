package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestResolveWorkloads(t *testing.T) {
	for _, w := range WorkloadOrder {
		ks, err := ResolveWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(ks) != 4 {
			t.Errorf("%s has %d kernels, want 4 (Table 5)", w, len(ks))
		}
	}
	if _, err := ResolveWorkload("XX"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestTable4Costs(t *testing.T) {
	r, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if r.BlockedMiss != 7 {
		t.Errorf("blocked miss cost = %d, want 7", r.BlockedMiss)
	}
	if r.InterleavedMiss != 2 {
		t.Errorf("interleaved miss cost = %d, want 2", r.InterleavedMiss)
	}
	if r.ExplicitSwitch != 3 {
		t.Errorf("explicit switch cost = %d, want 3", r.ExplicitSwitch)
	}
	if r.Backoff != 1 {
		t.Errorf("backoff cost = %d, want 1", r.Backoff)
	}
	out := FormatTable4(r)
	if !strings.Contains(out, "Cache miss") {
		t.Error("Table 4 formatting broken")
	}
}

func TestFigure2And3(t *testing.T) {
	b2, i2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if b2.Stats.Slots[core.SlotSwitch] != 7 || i2.Stats.Slots[core.SlotSwitch] != 2 {
		t.Errorf("figure 2 switch costs = %d/%d, want 7/2",
			b2.Stats.Slots[core.SlotSwitch], i2.Stats.Slots[core.SlotSwitch])
	}

	b3, i3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if i3.Cycles >= b3.Cycles {
		t.Errorf("figure 3: interleaved %d cycles must beat blocked %d", i3.Cycles, b3.Cycles)
	}
	tl := FormatTimeline(i3)
	if !strings.Contains(tl, "interleaved") || len(tl) == 0 {
		t.Error("timeline formatting broken")
	}
}

// The headline result: on a quick configuration, the Table 7 shape must
// hold — interleaved means beat blocked means at both context counts, and
// the blocked scheme stays close to flat.
func TestTable7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	r, err := RunUniprocessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		im := r.MeanGain(core.Interleaved, n)
		bm := r.MeanGain(core.Blocked, n)
		t.Logf("%d contexts: interleaved mean %.3f, blocked mean %.3f", n, im, bm)
		if im <= bm {
			t.Errorf("%d contexts: interleaved mean %.3f must beat blocked %.3f", n, im, bm)
		}
	}
	i4 := r.MeanGain(core.Interleaved, 4)
	if i4 < 1.15 {
		t.Errorf("interleaved 4-context mean gain = %.3f, want >= 1.15 (paper: 1.50)", i4)
	}
	out := FormatTable7(r)
	if !strings.Contains(out, "interleaved") {
		t.Error("Table 7 formatting broken")
	}
	f6 := FormatFigure(r, core.Blocked, 6)
	f7 := FormatFigure(r, core.Interleaved, 7)
	if !strings.Contains(f6, "Figure 6") || !strings.Contains(f7, "Figure 7") {
		t.Error("figure formatting broken")
	}
}

// Table 10 shape on a small configuration: interleaved beats blocked on
// the mean; cholesky gains essentially nothing.
func TestTable10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickMPConfig()
	r, err := RunMultiprocessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cfg.ContextCounts {
		im := r.MeanSpeedup(core.Interleaved, n)
		bm := r.MeanSpeedup(core.Blocked, n)
		t.Logf("%d contexts: interleaved mean %.3f, blocked mean %.3f", n, im, bm)
		if im <= bm {
			t.Errorf("%d contexts: interleaved mean %.3f must beat blocked %.3f", n, im, bm)
		}
	}
	if c, ok := r.Cell("cholesky", core.Interleaved, 4); ok && c.Speedup > 1.3 {
		t.Errorf("cholesky speedup = %.2f, want ~1.0", c.Speedup)
	}
	out := FormatTable10(r)
	if !strings.Contains(out, "mp3d") {
		t.Error("Table 10 formatting broken")
	}
	f8 := FormatMPFigure(r, core.Blocked, 8)
	f9 := FormatMPFigure(r, core.Interleaved, 9)
	if !strings.Contains(f8, "Figure 8") || !strings.Contains(f9, "Figure 9") {
		t.Error("MP figure formatting broken")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	cfg.Workloads = []string{"DC"}
	r, err := RunAblationsCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("ablation rows = %d, want 6", len(r.Rows))
	}
	get := func(name string) float64 {
		for _, row := range r.Rows {
			if row.Name == name {
				return row.Mean
			}
		}
		t.Fatalf("missing row %q", name)
		return 0
	}
	inter := get("interleaved")
	blocked := get("blocked")
	bfast := get("blocked-fast (1-cycle switch)")
	if inter <= blocked {
		t.Errorf("interleaved %.3f must beat blocked %.3f", inter, blocked)
	}
	if bfast <= blocked {
		t.Errorf("blocked-fast %.3f should beat blocked %.3f (cheaper switches)", bfast, blocked)
	}
	out := FormatAblations(r)
	if !strings.Contains(out, "fine-grained") {
		t.Error("ablation formatting broken")
	}
}

// TestSeedRobustness: the headline shape (interleaved mean beats blocked
// mean) must hold across seeds, not just the default.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := QuickUniConfig()
		cfg.Seed = seed
		cfg.Workloads = []string{"DC", "FP"}
		r, err := RunUniprocessor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		im := r.MeanGain(core.Interleaved, 4)
		bm := r.MeanGain(core.Blocked, 4)
		if im <= bm {
			t.Errorf("seed %d: interleaved %.3f <= blocked %.3f", seed, im, bm)
		}
	}
}

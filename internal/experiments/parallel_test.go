package experiments

import (
	"context"
	"reflect"
	"testing"
)

// The engine's core guarantee: the formatted experiment output is
// byte-identical at every parallelism level. Table 7 golden, -j 1 vs -j 8.
func TestTable7DeterministicAcrossParallelism(t *testing.T) {
	serial := QuickUniConfig()
	serial.Parallelism = 1
	rs, err := RunUniprocessor(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := QuickUniConfig()
	parallel.Parallelism = 8
	rp, err := RunUniprocessor(parallel)
	if err != nil {
		t.Fatal(err)
	}
	gs, gp := FormatTable7(rs), FormatTable7(rp)
	if gs != gp {
		t.Errorf("Table 7 differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", gs, gp)
	}
	// The figures render the same cells; they must match too.
	if f6s, f6p := FormatFigure(rs, rs.Cfg.Schemes[0], 6), FormatFigure(rp, rp.Cfg.Schemes[0], 6); f6s != f6p {
		t.Error("Figure 6 differs between -j 1 and -j 8")
	}
}

// Table 10 golden, -j 1 vs -j 8.
func TestTable10DeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial := QuickMPConfig()
	serial.Parallelism = 1
	rs, err := RunMultiprocessor(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := QuickMPConfig()
	parallel.Parallelism = 8
	rp, err := RunMultiprocessor(parallel)
	if err != nil {
		t.Fatal(err)
	}
	gs, gp := FormatTable10(rs), FormatTable10(rp)
	if gs != gp {
		t.Errorf("Table 10 differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", gs, gp)
	}
}

// Regression for the explicit-seed fix: two runs with the same seed must
// produce identical UniResult cells, field for field.
func TestSameSeedIdenticalCells(t *testing.T) {
	mk := func() UniConfig {
		cfg := QuickUniConfig()
		cfg.Workloads = []string{"DC", "R1"}
		cfg.Seed = 42
		cfg.Parallelism = 4
		return cfg
	}
	a, err := RunUniprocessor(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunUniprocessor(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Errorf("same seed produced different cells:\n%+v\nvs\n%+v", a.Cells, b.Cells)
	}
}

// Race-detector coverage: drive every experiment kind through the pool at
// once with tiny configurations. Safe in -short; run under
// `go test -race ./internal/experiments/...` (scripts/check.sh does).
func TestAllExperimentKindsUnderRace(t *testing.T) {
	uni := QuickUniConfig()
	uni.Workloads = []string{"DC"}
	uni.SliceCycles = 4_000
	uni.Parallelism = 4

	mpc := QuickMPConfig()
	mpc.Apps = []string{"water"}
	mpc.Processors = 2
	mpc.ContextCounts = []int{2}
	mpc.Parallelism = 4

	rcfg := DefaultResponseConfig()
	rcfg.Bursts = 6

	// The kinds themselves also run concurrently with each other, so the
	// race detector sees pool workers from different experiments
	// overlapping — the worst case the engine must survive.
	kinds := []func() error{
		func() error { _, err := RunUniprocessor(uni); return err },
		func() error { _, err := RunMultiprocessor(mpc); return err },
		func() error { _, err := RunAblationsCtx(context.Background(), uni); return err },
		func() error { _, err := RunPrefetchComparisonCtx(context.Background(), uni); return err },
		func() error { _, err := RunResponseCtx(context.Background(), rcfg); return err },
		func() error { _, err := SwitchCostSweepCtx(context.Background(), uni, "DC"); return err },
		func() error { _, err := ContextCountSweepCtx(context.Background(), uni, "DC"); return err },
		func() error { _, err := MSHRSweepCtx(context.Background(), uni, "DC"); return err },
		func() error { _, err := IssueWidthSweepCtx(context.Background(), uni, "R1"); return err },
		func() error { _, err := RemoteLatencySweepCtx(context.Background(), mpc, "water"); return err },
	}
	if err := runCells(context.Background(), 4, len(kinds), func(_ context.Context, i int) error { return kinds[i]() }); err != nil {
		t.Fatal(err)
	}
}

// Benchmarks: one per table and figure of the paper's evaluation, plus
// the ablation studies and raw simulator-speed benchmarks. Each
// table/figure benchmark runs a reduced-size configuration of the
// corresponding experiment and reports its headline quantity as a custom
// metric (gains and speedups as ratios ×1000 for readability in the
// -benchmem output).
//
// Regenerate the paper-scale numbers with: go run ./cmd/experiments
package interleave_test

import (
	"context"
	"runtime"
	"testing"

	interleave "repro"
	"repro/internal/core"
	"repro/internal/experiments"
)

// BenchmarkFigure2 measures the miss-cost microbenchmark: blocked pays 7
// switch slots per miss, interleaved 2.
func BenchmarkFigure2(b *testing.B) {
	var blocked, inter int64
	for i := 0; i < b.N; i++ {
		bl, in, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		blocked = bl.Stats.Slots[core.SlotSwitch]
		inter = in.Stats.Slots[core.SlotSwitch]
	}
	b.ReportMetric(float64(blocked), "blocked-switch-slots")
	b.ReportMetric(float64(inter), "interleaved-switch-slots")
}

// BenchmarkFigure3 runs the four-thread example timeline.
func BenchmarkFigure3(b *testing.B) {
	var bc, ic int64
	for i := 0; i < b.N; i++ {
		bl, in, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		bc, ic = bl.Cycles, in.Cycles
	}
	b.ReportMetric(float64(bc), "blocked-cycles")
	b.ReportMetric(float64(ic), "interleaved-cycles")
}

// BenchmarkTable4 measures the context-switch costs.
func BenchmarkTable4(b *testing.B) {
	var r *experiments.Table4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BlockedMiss), "blocked-miss-cost")
	b.ReportMetric(float64(r.InterleavedMiss), "interleaved-miss-cost")
	b.ReportMetric(float64(r.ExplicitSwitch), "switch-cost")
	b.ReportMetric(float64(r.Backoff), "backoff-cost")
}

// benchUni runs the reduced workstation evaluation once per iteration and
// reports the geometric-mean gains (×1000).
func benchUni(b *testing.B, workloads []string) *experiments.UniResult {
	b.Helper()
	cfg := experiments.QuickUniConfig()
	cfg.Workloads = workloads
	var r *experiments.UniResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunUniprocessor(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkTable7 runs the workstation evaluation (all seven workloads).
func BenchmarkTable7(b *testing.B) {
	r := benchUni(b, nil)
	b.ReportMetric(1000*r.MeanGain(core.Interleaved, 4), "interleaved4-gain-x1000")
	b.ReportMetric(1000*r.MeanGain(core.Blocked, 4), "blocked4-gain-x1000")
}

// BenchmarkFigure6 produces the blocked-scheme utilization breakdowns.
func BenchmarkFigure6(b *testing.B) {
	r := benchUni(b, []string{"DC", "DT"})
	if c, ok := r.Cell("DC", core.Blocked, 4); ok {
		b.ReportMetric(1000*c.Busy, "dc-blocked4-busy-x1000")
	}
}

// BenchmarkFigure7 produces the interleaved-scheme utilization breakdowns.
func BenchmarkFigure7(b *testing.B) {
	r := benchUni(b, []string{"DC", "DT"})
	if c, ok := r.Cell("DC", core.Interleaved, 4); ok {
		b.ReportMetric(1000*c.Busy, "dc-interleaved4-busy-x1000")
	}
}

// benchUniJ runs the full Table 7 grid at a fixed parallelism level.
func benchUniJ(b *testing.B, j int) {
	b.Helper()
	cfg := experiments.QuickUniConfig()
	cfg.Parallelism = j
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunUniprocessor(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7Serial vs BenchmarkTable7Parallel compares the experiment
// engine at -j 1 against -j NumCPU over the full Table 7 grid. The results
// are byte-identical (see TestTable7DeterministicAcrossParallelism); on a
// multi-core machine the parallel variant's ns/op is lower by roughly the
// core count, bounded by the largest single cell.
func BenchmarkTable7Serial(b *testing.B)   { benchUniJ(b, 1) }
func BenchmarkTable7Parallel(b *testing.B) { benchUniJ(b, runtime.NumCPU()) }

// benchMP runs the reduced multiprocessor evaluation once per iteration.
func benchMP(b *testing.B, apps []string) *experiments.MPResult {
	b.Helper()
	cfg := experiments.QuickMPConfig()
	cfg.Apps = apps
	var r *experiments.MPResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunMultiprocessor(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkTable10 runs the multiprocessor evaluation (all seven apps).
func BenchmarkTable10(b *testing.B) {
	r := benchMP(b, nil)
	b.ReportMetric(1000*r.MeanSpeedup(core.Interleaved, 4), "interleaved4-speedup-x1000")
	b.ReportMetric(1000*r.MeanSpeedup(core.Blocked, 4), "blocked4-speedup-x1000")
}

// benchMPJ runs the full Table 10 grid at a fixed parallelism level.
func benchMPJ(b *testing.B, j int) {
	b.Helper()
	cfg := experiments.QuickMPConfig()
	cfg.Parallelism = j
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMultiprocessor(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable10Serial vs BenchmarkTable10Parallel: the multiprocessor
// grid at -j 1 against -j NumCPU (byte-identical results either way).
func BenchmarkTable10Serial(b *testing.B)   { benchMPJ(b, 1) }
func BenchmarkTable10Parallel(b *testing.B) { benchMPJ(b, runtime.NumCPU()) }

// BenchmarkFigure8 produces the blocked-scheme MP execution-time breakdown.
func BenchmarkFigure8(b *testing.B) {
	r := benchMP(b, []string{"barnes", "water"})
	if c, ok := r.Cell("barnes", core.Blocked, 4); ok {
		b.ReportMetric(1000*c.Speedup, "barnes-blocked4-speedup-x1000")
	}
}

// BenchmarkFigure9 produces the interleaved-scheme MP breakdown.
func BenchmarkFigure9(b *testing.B) {
	r := benchMP(b, []string{"barnes", "water"})
	if c, ok := r.Cell("barnes", core.Interleaved, 4); ok {
		b.ReportMetric(1000*c.Speedup, "barnes-interleaved4-speedup-x1000")
	}
}

// BenchmarkAblations runs the §6 design-point studies on the DC workload.
func BenchmarkAblations(b *testing.B) {
	cfg := experiments.QuickUniConfig()
	cfg.Workloads = []string{"DC"}
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunAblationsCtx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		_ = row
	}
	b.ReportMetric(1000*r.Rows[0].Mean, "interleaved-gain-x1000")
	b.ReportMetric(1000*r.Rows[2].Mean, "blockedfast-gain-x1000")
}

// BenchmarkSweepIssueWidth runs the §7 superscalar extension sweep.
func BenchmarkSweepIssueWidth(b *testing.B) {
	cfg := experiments.QuickUniConfig()
	var r *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.IssueWidthSweepCtx(context.Background(), cfg, "R1")
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := r.Series["interleaved (4 ctx)"]
	b.ReportMetric(1000*pts[len(pts)-1].Gain, "interleaved4-w4-gain-x1000")
}

// BenchmarkSweepSwitchCost runs the §2.2 switch-cost sensitivity sweep.
func BenchmarkSweepSwitchCost(b *testing.B) {
	cfg := experiments.QuickUniConfig()
	var r *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.SwitchCostSweepCtx(context.Background(), cfg, "DC")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000*r.Series["blocked"][0].Gain, "blocked-cost1-gain-x1000")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per second of one interleaved 4-context processor running a
// compute kernel over the full cache hierarchy.
func BenchmarkSimulatorThroughput(b *testing.B) {
	reg := interleave.Kernels()
	m, err := interleave.NewMachine(interleave.DefaultConfig(interleave.Interleaved, 4))
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		k := reg["mxm"]
		p := k.Build(interleave.KernelOptions{
			CodeBase: 0x0100_0000 * uint32(c+1),
			DataBase: 0x4000_0000 + 0x0200_0000*uint32(c),
		})
		m.Load(c, p)
	}
	b.ResetTimer()
	m.Run(int64(b.N))
	b.ReportMetric(float64(b.N), "simulated-cycles")
}

// BenchmarkMPSimulatorThroughput measures multiprocessor lockstep speed.
func BenchmarkMPSimulatorThroughput(b *testing.B) {
	apps := interleave.Apps()
	p := apps["ocean"].Build(interleave.AppOptions{
		CodeBase:   0x0100_0000,
		DataBase:   0x5000_0000,
		NumThreads: 8,
		Steps:      1 << 20, // effectively endless; the bench bounds cycles
	})
	cfg := interleave.DefaultMPConfig(interleave.Single, 1)
	cfg.Processors = 8
	cfg.LimitCycles = int64(b.N)/8 + 1
	b.ResetTimer()
	if _, err := interleave.RunMultiprocessor(p, cfg); err != nil {
		b.Fatal(err)
	}
}

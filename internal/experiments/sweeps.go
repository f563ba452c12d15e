package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mp"
	"repro/internal/splash"
	"repro/internal/stats"
	"repro/internal/workstation"
)

// SweepPoint is one configuration of a one-dimensional sensitivity sweep.
type SweepPoint struct {
	X     float64 // the swept parameter's value
	Label string
	Gain  float64 // fairness-normalized gain or speedup vs the sweep's baseline
}

// SweepResult is a named series of sweep points per scheme.
type SweepResult struct {
	Name   string
	XLabel string
	Series map[string][]SweepPoint
}

// SwitchCostSweep varies the blocked scheme's pipeline-flush cost from 1
// to 9 cycles on the given workload at four contexts, with the
// interleaved scheme as a horizontal reference — quantifying §2.2's
// question of whether replicating pipeline registers (a 1-cycle switch)
// closes the gap.
func SwitchCostSweep(cfg UniConfig, workload string) (*SweepResult, error) {
	return SwitchCostSweepCtx(context.Background(), cfg, workload)
}

// SwitchCostSweepCtx is SwitchCostSweep with cancellation: cancelling ctx
// stops running cells within engine.BlockCycles cycles.
func SwitchCostSweepCtx(ctx context.Context, cfg UniConfig, workload string) (*SweepResult, error) {
	kernels, err := ResolveWorkload(workload)
	if err != nil {
		return nil, err
	}
	// Sweep cells deliberately share cfg.Seed (common random numbers):
	// every point sees the same scheduler-interference stream, so the
	// curve isolates the swept parameter. The cells are still
	// independent simulations and fan out through the pool.
	configs := []workstation.Config{cfg.cellConfig(core.Single, 1, cfg.Seed)}
	// Unit-step resolution: each extra point costs one measure phase, not
	// a full warm-up, because every blocked cell forks from one shared
	// warm-up checkpoint (the sweep ran {1,3,5,7,9} before forking made
	// the denser axis affordable).
	costs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, cost := range costs {
		// The flush cost is a measurement-time override (not a base-config
		// edit): warm-up runs at the default cost for every point, so all
		// ten cells share one warm-up prefix and fork from one checkpoint.
		w := cfg.cellConfig(core.Blocked, 4, cfg.Seed)
		w.Measure.BlockedFlushCost = cost
		configs = append(configs, w)
	}
	configs = append(configs, cfg.cellConfig(core.Interleaved, 4, cfg.Seed))

	thr, err := sweepThroughputsShared(ctx, cfg, workload, kernels, configs)
	if err != nil {
		return nil, err
	}
	base := thr[0]
	res := &SweepResult{
		Name:   fmt.Sprintf("blocked switch cost on %s (4 contexts)", workload),
		XLabel: "flush cost (cycles)",
		Series: map[string][]SweepPoint{},
	}
	for ci, cost := range costs {
		res.Series["blocked"] = append(res.Series["blocked"], SweepPoint{
			X: float64(cost), Label: fmt.Sprintf("%d", cost), Gain: thr[1+ci] / base,
		})
	}
	res.Series["interleaved (reference)"] = []SweepPoint{{X: 7, Label: "7", Gain: thr[len(thr)-1] / base}}
	return res, nil
}

// sweepThroughputs runs one workstation simulation per config, fanned out
// across the pool, and returns the fairness-normalized throughputs in
// config order.
func sweepThroughputs(ctx context.Context, parallelism int, kernels []apps.Kernel, configs []workstation.Config) ([]float64, error) {
	thr := make([]float64, len(configs))
	err := runCells(ctx, parallelism, len(configs), func(ctx context.Context, i int) error {
		r, err := workstation.RunCtx(ctx, kernels, configs[i])
		if err != nil {
			return err
		}
		thr[i] = r.FairThroughput
		return nil
	})
	if err != nil {
		return nil, err
	}
	return thr, nil
}

// ContextCountSweep varies the number of hardware contexts from 2 to 8 for
// both schemes on the given workload — the diminishing-returns curve the
// paper's Figures 6-7 trace with their 1/2/4-context bars.
func ContextCountSweep(cfg UniConfig, workload string) (*SweepResult, error) {
	return ContextCountSweepCtx(context.Background(), cfg, workload)
}

// ContextCountSweepCtx is ContextCountSweep with cancellation.
func ContextCountSweepCtx(ctx context.Context, cfg UniConfig, workload string) (*SweepResult, error) {
	kernels, err := ResolveWorkload(workload)
	if err != nil {
		return nil, err
	}
	schemes := []core.Scheme{core.Blocked, core.Interleaved}
	counts := []int{2, 4, 8}
	configs := []workstation.Config{cfg.cellConfig(core.Single, 1, cfg.Seed)}
	for _, s := range schemes {
		for _, n := range counts {
			configs = append(configs, cfg.cellConfig(s, n, cfg.Seed))
		}
	}
	// The context count is structural — it shapes the warm-up itself —
	// so these cells cannot share a prefix and run from scratch.
	thr, err := sweepThroughputs(ctx, cfg.Parallelism, kernels, configs)
	if err != nil {
		return nil, err
	}
	base := thr[0]
	res := &SweepResult{
		Name:   fmt.Sprintf("context count on %s", workload),
		XLabel: "hardware contexts",
		Series: map[string][]SweepPoint{},
	}
	i := 1
	for _, s := range schemes {
		for _, n := range counts {
			res.Series[s.String()] = append(res.Series[s.String()], SweepPoint{
				X: float64(n), Label: fmt.Sprintf("%d", n), Gain: thr[i] / base,
			})
			i++
		}
	}
	return res, nil
}

// RemoteLatencySweep scales the multiprocessor's remote latencies (Table
// 8) by 0.5x to 4x on one application at four contexts, showing how the
// schemes' speedups respond to the latency multiple contexts must hide.
func RemoteLatencySweep(cfg MPConfig, app string) (*SweepResult, error) {
	return RemoteLatencySweepCtx(context.Background(), cfg, app)
}

// RemoteLatencySweepCtx is RemoteLatencySweep with cancellation:
// cancelling ctx stops running cells within one lockstep block.
func RemoteLatencySweepCtx(ctx context.Context, cfg MPConfig, app string) (*SweepResult, error) {
	a, err := splash.Lookup(app)
	if err != nil {
		return nil, err
	}
	type spec struct {
		scheme   core.Scheme
		contexts int
		scale    float64
	}
	scales := []float64{0.5, 1, 2, 4}
	schemes := []core.Scheme{core.Blocked, core.Interleaved}
	var specs []spec
	for _, scale := range scales {
		specs = append(specs, spec{core.Single, 1, scale})
		for _, s := range schemes {
			specs = append(specs, spec{s, 4, scale})
		}
	}
	// The swept latencies act from cycle zero (the multiprocessor run
	// has no warm-up/measure split), so no prefix is shared: every cell
	// simulates from scratch.
	cycles := make([]int64, len(specs))
	err = runCells(ctx, cfg.Parallelism, len(specs), func(ctx context.Context, i int) error {
		sp := specs[i]
		mcfg := mp.DefaultConfig(sp.scheme, sp.contexts)
		mcfg.Processors = cfg.Processors
		mcfg.LimitCycles = cfg.LimitCycles
		mcfg.Coherence.Seed = cfg.Seed
		mcfg.Coherence.RemoteLow = int(float64(mcfg.Coherence.RemoteLow) * sp.scale)
		mcfg.Coherence.RemoteHigh = int(float64(mcfg.Coherence.RemoteHigh) * sp.scale)
		mcfg.Coherence.DirtyLow = int(float64(mcfg.Coherence.DirtyLow) * sp.scale)
		mcfg.Coherence.DirtyHigh = int(float64(mcfg.Coherence.DirtyHigh) * sp.scale)
		p := a.Program(splash.MPOptions(sp.scheme, cfg.Processors*sp.contexts, cfg.Steps, cfg.Scale))
		r, err := mp.RunCtx(ctx, p, mcfg)
		if err != nil {
			return err
		}
		if !r.Completed {
			return fmt.Errorf("experiments: %s at scale %.1f did not complete", app, sp.scale)
		}
		cycles[i] = r.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &SweepResult{
		Name:   fmt.Sprintf("remote latency scale on %s (4 contexts, %d processors)", app, cfg.Processors),
		XLabel: "remote latency scale",
		Series: map[string][]SweepPoint{},
	}
	for si, scale := range scales {
		base := cycles[si*(1+len(schemes))]
		for j, s := range schemes {
			c := cycles[si*(1+len(schemes))+1+j]
			res.Series[s.String()] = append(res.Series[s.String()], SweepPoint{
				X: scale, Label: fmt.Sprintf("%.1fx", scale), Gain: float64(base) / float64(c),
			})
		}
	}
	return res, nil
}

// MSHRSweep varies the lockup-free data cache's miss registers from 1 to
// 8 for the interleaved scheme at four contexts — the memory-level
// parallelism the scheme depends on (§6's lockup-free cache requirement).
func MSHRSweep(cfg UniConfig, workload string) (*SweepResult, error) {
	return MSHRSweepCtx(context.Background(), cfg, workload)
}

// MSHRSweepCtx is MSHRSweep with cancellation.
func MSHRSweepCtx(ctx context.Context, cfg UniConfig, workload string) (*SweepResult, error) {
	kernels, err := ResolveWorkload(workload)
	if err != nil {
		return nil, err
	}
	mshrs := []int{1, 2, 4, 8}
	configs := []workstation.Config{cfg.cellConfig(core.Single, 1, cfg.Seed)}
	for _, m := range mshrs {
		// Warm-up runs with the default miss registers; the swept count
		// takes effect when measurement starts, so the interleaved cells
		// share one warm-up prefix and fork from one checkpoint.
		w := cfg.cellConfig(core.Interleaved, 4, cfg.Seed)
		w.Measure.MSHRs = m
		configs = append(configs, w)
	}
	thr, err := sweepThroughputsShared(ctx, cfg, workload, kernels, configs)
	if err != nil {
		return nil, err
	}
	base := thr[0]
	res := &SweepResult{
		Name:   fmt.Sprintf("miss registers on %s (interleaved, 4 contexts)", workload),
		XLabel: "MSHRs",
		Series: map[string][]SweepPoint{},
	}
	for mi, m := range mshrs {
		res.Series["interleaved"] = append(res.Series["interleaved"], SweepPoint{
			X: float64(m), Label: fmt.Sprintf("%d", m), Gain: thr[1+mi] / base,
		})
	}
	return res, nil
}

// FormatSweep renders a sweep as a table.
func FormatSweep(r *SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep: %s\n\n", r.Name)
	names := make([]string, 0, len(r.Series))
	for n := range r.Series {
		names = append(names, n)
	}
	// Stable order: blocked, interleaved, then others alphabetically.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	t := stats.NewTable(append([]string{r.XLabel}, names...)...)
	// Collect the union of X labels in first-series order.
	var labels []string
	seen := map[string]bool{}
	for _, n := range names {
		for _, pt := range r.Series[n] {
			if !seen[pt.Label] {
				seen[pt.Label] = true
				labels = append(labels, pt.Label)
			}
		}
	}
	for _, lbl := range labels {
		row := []string{lbl}
		for _, n := range names {
			cell := "-"
			for _, pt := range r.Series[n] {
				if pt.Label == lbl {
					cell = stats.Ratio(pt.Gain)
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	return b.String()
}

// IssueWidthSweep runs the §7 extension: a superscalar version of the
// processor issuing 1, 2 or 4 instructions per cycle, for the
// single-context and four-context interleaved designs. The paper argues
// (and Tullsen's later SMT work confirmed) that multiple contexts are what
// fill the extra issue slots a lone thread cannot.
func IssueWidthSweep(cfg UniConfig, workload string) (*SweepResult, error) {
	return IssueWidthSweepCtx(context.Background(), cfg, workload)
}

// IssueWidthSweepCtx is IssueWidthSweep with cancellation.
func IssueWidthSweepCtx(ctx context.Context, cfg UniConfig, workload string) (*SweepResult, error) {
	kernels, err := ResolveWorkload(workload)
	if err != nil {
		return nil, err
	}
	mk := func(s core.Scheme, n, width int) workstation.Config {
		w := cfg.cellConfig(s, n, cfg.Seed)
		cc := core.DefaultConfig(s, n)
		cc.IssueWidth = width
		w.Core = &cc
		return w
	}
	widths := []int{1, 2, 4}
	configs := []workstation.Config{mk(core.Single, 1, 1)}
	for _, width := range widths {
		configs = append(configs, mk(core.Single, 1, width))
		configs = append(configs, mk(core.Interleaved, 4, width))
	}
	// The issue width changes the slot accounting from cycle zero —
	// warm-up differs per point — so the cells run from scratch.
	thr, err := sweepThroughputs(ctx, cfg.Parallelism, kernels, configs)
	if err != nil {
		return nil, err
	}
	base := thr[0]
	res := &SweepResult{
		Name:   fmt.Sprintf("issue width on %s (superscalar extension, paper §7)", workload),
		XLabel: "issue width",
		Series: map[string][]SweepPoint{},
	}
	for wi, width := range widths {
		res.Series["single"] = append(res.Series["single"], SweepPoint{
			X: float64(width), Label: fmt.Sprintf("%d", width), Gain: thr[1+2*wi] / base,
		})
		res.Series["interleaved (4 ctx)"] = append(res.Series["interleaved (4 ctx)"], SweepPoint{
			X: float64(width), Label: fmt.Sprintf("%d", width), Gain: thr[2+2*wi] / base,
		})
	}
	return res, nil
}

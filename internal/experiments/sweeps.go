package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/splash"
	"repro/internal/stats"
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

// SwitchCostSweepCtx varies the blocked scheme's pipeline-flush cost from
// 1 to 10 cycles on the given workload at four contexts, with the
// interleaved scheme as a horizontal reference — quantifying §2.2's
// question of whether replicating pipeline registers (a 1-cycle switch)
// closes the gap. Cancelling ctx stops running cells within
// engine.BlockCycles cycles.
func SwitchCostSweepCtx(ctx context.Context, cfg UniConfig, workload string) (*SweepResult, error) {
	// The blocked points differ only in Measure, so they share a
	// configuration key and with it a seed: every point sees the same
	// scheduler-interference stream, and the curve isolates the swept
	// parameter. The cells are still independent simulations and fan out
	// through the pool.
	cells := []studyCell{{workload, cfg.cellConfig(core.Single, 1)}}
	// Unit-step resolution: each extra point costs one measure phase, not
	// a full warm-up, because every blocked cell forks from one shared
	// warm-up checkpoint (the sweep ran {1,3,5,7,9} before forking made
	// the denser axis affordable).
	costs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, cost := range costs {
		// The flush cost is a measurement-time override (not a base-config
		// edit): warm-up runs at the default cost for every point, so all
		// ten cells share one warm-up prefix and fork from one checkpoint.
		w := cfg.cellConfig(core.Blocked, 4)
		w.Measure.BlockedFlushCost = cost
		cells = append(cells, studyCell{workload, w})
	}
	cells = append(cells, studyCell{workload, cfg.cellConfig(core.Interleaved, 4)})

	gains, err := sweepGains(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Name:   fmt.Sprintf("blocked switch cost on %s (4 contexts)", workload),
		XLabel: "flush cost (cycles)",
		Series: map[string][]SweepPoint{},
	}
	for ci, cost := range costs {
		res.Series["blocked"] = append(res.Series["blocked"], SweepPoint{
			X: float64(cost), Label: fmt.Sprintf("%d", cost), Gain: gains[1+ci],
		})
	}
	res.Series["interleaved (reference)"] = []SweepPoint{{X: 7, Label: "7", Gain: gains[len(gains)-1]}}
	return res, nil
}

// sweepGains runs a workstation sweep's cells and returns each cell's
// fairness-normalized throughput over that of cell 0, the sweep's
// baseline.
func sweepGains(ctx context.Context, cfg UniConfig, cells []studyCell) ([]float64, error) {
	runs, err := runStudyCells(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}
	gains := make([]float64, len(runs))
	for i, r := range runs {
		gains[i] = r.FairThroughput / runs[0].FairThroughput
	}
	return gains, nil
}

// ContextCountSweepCtx varies the number of hardware contexts from 2 to 8
// for both schemes on the given workload — the diminishing-returns curve
// the paper's Figures 6-7 trace with their 1/2/4-context bars.
func ContextCountSweepCtx(ctx context.Context, cfg UniConfig, workload string) (*SweepResult, error) {
	schemes := []core.Scheme{core.Blocked, core.Interleaved}
	counts := []int{2, 4, 8}
	// The context count is structural — it shapes the warm-up itself —
	// so no two cells share a prefix and each runs from scratch.
	cells := []studyCell{{workload, cfg.cellConfig(core.Single, 1)}}
	for _, s := range schemes {
		for _, n := range counts {
			cells = append(cells, studyCell{workload, cfg.cellConfig(s, n)})
		}
	}
	gains, err := sweepGains(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Name:   fmt.Sprintf("context count on %s", workload),
		XLabel: "hardware contexts",
		Series: map[string][]SweepPoint{},
	}
	i := 1
	for _, s := range schemes {
		for _, n := range counts {
			res.Series[s.String()] = append(res.Series[s.String()], SweepPoint{
				X: float64(n), Label: fmt.Sprintf("%d", n), Gain: gains[i],
			})
			i++
		}
	}
	return res, nil
}

// RemoteLatencySweepCtx scales the multiprocessor's remote latencies
// (Table 8) by 0.5x to 4x on one application at four contexts, showing
// how the schemes' speedups respond to the latency multiple contexts must
// hide. Cancelling ctx stops running cells within one lockstep block.
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
	// simulates from scratch. The latencies are part of the machine, so
	// each scale seeds its own cells, and the 1.0x points are Table 10's
	// cells of the application.
	cycles := make([]int64, len(specs))
	err = runCells(ctx, cfg.Parallelism, len(specs), func(ctx context.Context, i int) error {
		sp := specs[i]
		mcfg := cfg.cellConfig(sp.scheme, sp.contexts)
		mcfg.Coherence.RemoteLow = int(float64(mcfg.Coherence.RemoteLow) * sp.scale)
		mcfg.Coherence.RemoteHigh = int(float64(mcfg.Coherence.RemoteHigh) * sp.scale)
		mcfg.Coherence.DirtyLow = int(float64(mcfg.Coherence.DirtyLow) * sp.scale)
		mcfg.Coherence.DirtyHigh = int(float64(mcfg.Coherence.DirtyHigh) * sp.scale)
		opts := cfg.programOptions(sp.scheme, sp.contexts)
		r, err := runMP(ctx, a, opts, seedMP(cfg.Seed, app, opts, mcfg))
		if err != nil {
			return err
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

// MSHRSweepCtx varies the lockup-free data cache's miss registers from 1
// to 8 for the interleaved scheme at four contexts — the memory-level
// parallelism the scheme depends on (§6's lockup-free cache requirement).
func MSHRSweepCtx(ctx context.Context, cfg UniConfig, workload string) (*SweepResult, error) {
	mshrs := []int{1, 2, 4, 8}
	cells := []studyCell{{workload, cfg.cellConfig(core.Single, 1)}}
	for _, m := range mshrs {
		// Warm-up runs with the default miss registers; the swept count
		// takes effect when measurement starts, so the interleaved cells
		// share one warm-up prefix and fork from one checkpoint.
		w := cfg.cellConfig(core.Interleaved, 4)
		w.Measure.MSHRs = m
		cells = append(cells, studyCell{workload, w})
	}
	gains, err := sweepGains(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Name:   fmt.Sprintf("miss registers on %s (interleaved, 4 contexts)", workload),
		XLabel: "MSHRs",
		Series: map[string][]SweepPoint{},
	}
	for mi, m := range mshrs {
		res.Series["interleaved"] = append(res.Series["interleaved"], SweepPoint{
			X: float64(m), Label: fmt.Sprintf("%d", m), Gain: gains[1+mi],
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
	sort.Strings(names) // blocked before interleaved
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

// IssueWidthSweepCtx runs the §7 extension: a superscalar version of the
// processor issuing 1, 2 or 4 instructions per cycle, for the
// single-context and four-context interleaved designs. The paper argues
// (and Tullsen's later SMT work confirmed) that multiple contexts are what
// fill the extra issue slots a lone thread cannot.
func IssueWidthSweepCtx(ctx context.Context, cfg UniConfig, workload string) (*SweepResult, error) {
	mk := func(s core.Scheme, n, width int) studyCell {
		w := cfg.cellConfig(s, n)
		if width > 1 {
			cc := core.DefaultConfig(s, n)
			cc.IssueWidth = width
			w.Core = &cc
		}
		return studyCell{workload, w}
	}
	widths := []int{1, 2, 4}
	// Per width, the single-context cell then the interleaved one; the
	// width-1 single-context cell is the baseline itself. The issue width
	// changes the slot accounting from cycle zero — warm-up differs per
	// point — so no two cells share a prefix.
	cells := []studyCell{mk(core.Single, 1, 1)}
	for _, width := range widths {
		if width > 1 {
			cells = append(cells, mk(core.Single, 1, width))
		}
		cells = append(cells, mk(core.Interleaved, 4, width))
	}
	gains, err := sweepGains(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Name:   fmt.Sprintf("issue width on %s (superscalar extension, paper §7)", workload),
		XLabel: "issue width",
		Series: map[string][]SweepPoint{},
	}
	for wi, width := range widths {
		res.Series["single"] = append(res.Series["single"], SweepPoint{
			X: float64(width), Label: fmt.Sprintf("%d", width), Gain: gains[2*wi],
		})
		res.Series["interleaved (4 ctx)"] = append(res.Series["interleaved (4 ctx)"], SweepPoint{
			X: float64(width), Label: fmt.Sprintf("%d", width), Gain: gains[2*wi+1],
		})
	}
	return res, nil
}

package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workstation"
)

// UniConfig parameterizes the workstation experiments (Table 7 and
// Figures 6-7).
type UniConfig struct {
	// Schemes evaluated against the single-context baseline.
	Schemes []core.Scheme
	// ContextCounts per scheme (the paper uses 2 and 4).
	ContextCounts []int
	// Workloads to run; nil selects all of Table 5.
	Workloads []string

	SliceCycles      int64
	WarmupRotations  int
	MeasureRotations int
	Seed             int64

	// Parallelism bounds how many simulation cells run concurrently:
	// 0 selects DefaultParallelism (GOMAXPROCS), 1 forces the serial
	// path. Results are byte-identical at every setting.
	Parallelism int

	// CellTimeout bounds each cell's wall-clock time (-cell-timeout). A
	// cell that exceeds it fails with a typed guard.OpDeadline error —
	// after one retry at a doubled budget, the watchdog discipline applied
	// to wall time — and counts against the exit code like any other cell
	// failure. Zero disables the deadline. Excluded from JSON so the
	// timeout choice never enters result fingerprints: it bounds wall
	// clock, not simulated behavior.
	CellTimeout time.Duration `json:"-"`

	// Guard is the per-cell hardening configuration. A non-zero ChaosSeed
	// is decorrelated per cell with DeriveSeed, so every cell perturbs its
	// own private stream.
	Guard guard.Options

	// Obs configures per-cell observability; enabled, every cell carries
	// its sampled counter series and event trace in UniCell.Metrics.
	Obs metrics.Options

	// Journal, when non-nil, records every completed cell durably and
	// replays cells already present (crash-safe resume). Excluded from
	// JSON so results and fingerprints do not depend on journaling.
	Journal *Journal `json:"-"`

	// Checkpoint configures warm-up sharing for the sensitivity sweeps:
	// sweeps whose swept parameter is a measurement-time override
	// simulate their shared warm-up prefix once and fork every cell from
	// it. Excluded from JSON because forked and from-scratch runs are
	// byte-identical; the one observable consequence — which codec wrote
	// any on-disk checkpoints — is recorded in Fingerprint.Checkpoint.
	Checkpoint CheckpointOptions `json:"-"`
}

// DefaultUniConfig reproduces the paper's setup (time-scaled).
func DefaultUniConfig() UniConfig {
	return UniConfig{
		Schemes:          []core.Scheme{core.Blocked, core.Interleaved},
		ContextCounts:    []int{2, 4},
		SliceCycles:      60_000,
		WarmupRotations:  1,
		MeasureRotations: 2,
		Seed:             1,
	}
}

// QuickUniConfig is a reduced configuration for tests and benchmarks. The
// seed is set explicitly (not inherited implicitly, and never the zero
// value) so quick runs are reproducible by construction.
func QuickUniConfig() UniConfig {
	c := DefaultUniConfig()
	c.SliceCycles = 8_000
	c.MeasureRotations = 1
	c.Seed = 1
	return c
}

// UniCell is one (workload, scheme, contexts) measurement.
type UniCell struct {
	Workload string
	Scheme   core.Scheme
	Contexts int
	// Busy is the raw processor busy fraction (Figures 6-7); Gain is the
	// fairness-normalized throughput relative to the single-context
	// baseline (Table 7's throughput increase; see
	// workstation.Result.FairThroughput).
	Busy      float64
	Gain      float64
	Breakdown core.Breakdown

	CellStatus
}

func (c UniCell) at() cellSpec   { return cellSpec{c.Workload, c.Scheme, c.Contexts} }
func (c UniCell) ratio() float64 { return c.Gain }

// UniResult holds every cell of the workstation evaluation, including the
// single-context baselines (Scheme == core.Single, Contexts == 1).
type UniResult struct {
	Cfg   UniConfig
	Cells []UniCell
	// Failures counts failed cells; drivers exit non-zero when any cell
	// failed even though the rest of the grid completed.
	Failures int
	// Skipped counts cells lost to an interrupted (drained) run; they
	// render as SKIP and re-run on a journal resume.
	Skipped int `json:",omitempty"`
}

// Cell returns the measurement for (workload, scheme, contexts).
func (r *UniResult) Cell(w string, s core.Scheme, n int) (UniCell, bool) {
	return findCell(r.Cells, cellSpec{w, s, n})
}

// MeanGain returns the geometric-mean throughput gain across workloads for
// (scheme, contexts) — the Mean column of Table 7.
func (r *UniResult) MeanGain(s core.Scheme, n int) float64 {
	m, _, _ := r.MeanGainN(s, n)
	return m
}

// MeanGainN additionally reports coverage; see meanRatio.
func (r *UniResult) MeanGainN(s core.Scheme, n int) (mean float64, used, total int) {
	return meanRatio(r.Cells, s, n)
}

// UniCellRecord is the journaled outcome of one workstation grid cell —
// everything needed to rebuild the cell without re-simulating — and the
// wire form a service worker reports for it. A failed cell has no Result.
type UniCellRecord struct {
	Result *workstation.Result `json:"result,omitempty"`
	CellOutcome
}

// cellConfig is the workstation one cell of an experiment under cfg
// simulates: the scheme's default machine at cfg's time scale.
func (cfg UniConfig) cellConfig(s core.Scheme, contexts int, seed int64) workstation.Config {
	w := workstation.DefaultConfig(s, contexts)
	w.OS.SliceCycles = cfg.SliceCycles
	w.WarmupRotations = cfg.WarmupRotations
	w.MeasureRotations = cfg.MeasureRotations
	w.Seed = seed
	return w
}

func (cfg UniConfig) workloads() []string {
	if cfg.Workloads == nil {
		return WorkloadOrder
	}
	return cfg.Workloads
}

// workstationGrid is the Table 7 evaluation: the subjects are the
// Table 5 workload mixes, a cell's ratio its fairness-normalized
// throughput over its mix's single-context baseline.
var workstationGrid = &machine[UniConfig, UniCellRecord, UniCell, UniResult]{
	name: GridWorkstation,
	sections: []section[UniResult]{
		{"table7", func(r *UniResult) string { return FormatTable7(r) + "\n\n" }},
		{"fig6", func(r *UniResult) string { return FormatFigure(r, core.Blocked, 6) + "\n" }},
		{"fig7", func(r *UniResult) string { return FormatFigure(r, core.Interleaved, 7) + "\n" }},
	},
	design: func(cfg UniConfig) design {
		return design{subjects: cfg.workloads(), schemes: cfg.Schemes, contexts: cfg.ContextCounts,
			seed: cfg.Seed, parallelism: cfg.Parallelism, timeout: cfg.CellTimeout, guard: cfg.Guard}
	},
	lookup: func(workload string) error {
		_, err := ResolveWorkload(workload)
		return err
	},
	attempt: func(ctx context.Context, cfg UniConfig, a cellAttempt) (*UniCellRecord, error) {
		kernels, err := ResolveWorkload(a.subject)
		if err != nil {
			return nil, err
		}
		return uniAttempt(ctx, cfg, kernels, a)
	},
	outcome:  func(rec *UniCellRecord) *CellOutcome { return &rec.CellOutcome },
	measured: func(rec *UniCellRecord) bool { return rec.Result != nil },
	cell: func(sp cellSpec, st CellStatus, rec, base *UniCellRecord) UniCell {
		c := UniCell{Workload: sp.subject, Scheme: sp.scheme, Contexts: sp.contexts, CellStatus: st}
		if rec == nil {
			return c
		}
		r := rec.Result
		c.Busy = r.Throughput
		c.Breakdown = r.Stats.Breakdown()
		c.Metrics = r.Metrics
		if sp.baseline() {
			c.Gain = 1
		} else if base != nil && base.Result.FairThroughput > 0 {
			c.Gain = r.FairThroughput / base.Result.FairThroughput
		}
		return c
	},
	result: func(cfg UniConfig, t tally[UniCell]) *UniResult {
		return &UniResult{Cfg: cfg, Cells: t.cells, Failures: t.failures, Skipped: t.skipped}
	},
}

// uniAttempt runs one attempt of a workstation cell on the given
// kernels — its workload's, except in tests that substitute their own.
func uniAttempt(ctx context.Context, cfg UniConfig, kernels []apps.Kernel, a cellAttempt) (*UniCellRecord, error) {
	wcfg := cfg.cellConfig(a.scheme, a.contexts, a.seed)
	wcfg.Guard = a.guard
	wcfg.Obs = cfg.Obs
	r, err := workstation.RunCtx(ctx, kernels, wcfg)
	if err != nil {
		return nil, err
	}
	return &UniCellRecord{Result: r}, nil
}

// UniGridSize returns the number of cells in cfg's workstation grid —
// the valid index range for RunUniCell and AssembleUni.
func UniGridSize(cfg UniConfig) (int, error) { return workstationGrid.size(cfg) }

// RunUniCell simulates one cell of cfg's workstation grid and returns
// its journal/wire record, under the per-cell policy every driver shares
// (grid.runCell). The only non-nil error returns are a bad index and a
// cancellation of ctx itself.
func RunUniCell(ctx context.Context, cfg UniConfig, index int) (*UniCellRecord, error) {
	return workstationGrid.runCell(ctx, cfg, index)
}

// AssembleUni folds index-ordered cell records into the evaluation
// result: gains against each workload's single-context baseline, failure
// and skip counts (grid.tabulate). A nil record renders as SKIP.
func AssembleUni(cfg UniConfig, recs []*UniCellRecord) (*UniResult, error) {
	return workstationGrid.assemble(cfg, recs)
}

// RenderUniSections renders the workstation sections the selection asks
// for, byte-identical to what cmd/experiments prints for them.
func RenderUniSections(sel func(string) bool, uni *UniResult) string {
	return workstationGrid.render(sel, uni)
}

// RunUniprocessor runs the full workstation evaluation.
func RunUniprocessor(cfg UniConfig) (*UniResult, error) {
	return RunUniprocessorCtx(context.Background(), cfg)
}

// RunUniprocessorCtx is RunUniprocessor with cancellation and journaling
// (grid.run): cancelling ctx drains the grid — queued cells never start,
// running cells stop within engine.BlockCycles cycles, both render as
// SKIP — and a cfg.Journal replays completed cells from a previous run
// and records new ones durably.
func RunUniprocessorCtx(ctx context.Context, cfg UniConfig) (*UniResult, error) {
	return workstationGrid.run(ctx, cfg, cfg.Journal)
}

// FormatTable7 renders the paper's Table 7: throughput increase with
// multiple contexts, as ratios to the single-context baseline.
func FormatTable7(r *UniResult) string {
	return formatRatioTable("Table 7: Increase in application throughput with multiple contexts\n"+
		"(ratio to single-context baseline; paper reports e.g. interleaved 1.22/1.50 means)\n\n",
		"gain", r.Cfg.workloads(), r.Cfg.ContextCounts, r.Cells)
}

// FormatFigure renders Figure 6 (blocked) or Figure 7 (interleaved): the
// processor-utilization breakdown per workload for 1, 2 and 4 contexts,
// as stacked text bars.
func FormatFigure(r *UniResult, scheme core.Scheme, figure int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s scheme processor utilization\n", figure, scheme)
	b.WriteString("(bar: B=busy i=instr stall I=I-cache D=D-cache/TLB S=switch; number = busy fraction)\n\n")
	configs := []struct {
		s core.Scheme
		n int
	}{{core.Single, 1}}
	for _, n := range r.Cfg.ContextCounts {
		configs = append(configs, struct {
			s core.Scheme
			n int
		}{scheme, n})
	}
	for _, w := range r.Cfg.workloads() {
		fmt.Fprintf(&b, "%s:\n", w)
		for _, cf := range configs {
			c, ok := r.Cell(w, cf.s, cf.n)
			if !ok {
				continue
			}
			if c.Skipped {
				fmt.Fprintf(&b, "  %d ctx SKIPPED (run interrupted)\n", cf.n)
				continue
			}
			if c.Failed {
				fmt.Fprintf(&b, "  %d ctx FAILED: %s\n", cf.n, c.Failure)
				continue
			}
			bd := c.Breakdown
			bar := stats.Bar(50,
				[]float64{bd.Busy + bd.Sync, bd.InstrShort + bd.InstrLong, bd.InstCache, bd.DataMem, bd.Switch},
				[]rune{'B', 'i', 'I', 'D', 'S'})
			fmt.Fprintf(&b, "  %d ctx |%s| %.2f\n", cf.n, bar, c.Busy)
		}
	}
	return b.String()
}

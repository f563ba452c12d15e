package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/mp"
	"repro/internal/splash"
	"repro/internal/stats"
)

// MPConfig parameterizes the multiprocessor experiments (Table 10 and
// Figures 8-9).
type MPConfig struct {
	Processors    int
	Schemes       []core.Scheme
	ContextCounts []int // the paper uses 2, 4 and 8
	Apps          []string
	Steps         int // per-app time steps; 0 selects app defaults
	Scale         int
	LimitCycles   int64
	Seed          int64

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
	// its sampled counter series and event trace in MPCell.Metrics.
	Obs metrics.Options

	// Journal, when non-nil, records every completed cell durably and
	// replays cells already present (crash-safe resume). Excluded from
	// JSON so results and fingerprints do not depend on journaling.
	Journal *Journal `json:"-"`
}

// DefaultMPConfig reproduces the paper's multiprocessor setup on 8 nodes.
func DefaultMPConfig() MPConfig {
	return MPConfig{
		Processors:    8,
		Schemes:       []core.Scheme{core.Blocked, core.Interleaved},
		ContextCounts: []int{2, 4, 8},
		LimitCycles:   100_000_000,
		Seed:          1,
	}
}

// QuickMPConfig is a reduced configuration for tests and benchmarks. The
// seed is set explicitly (not inherited implicitly, and never the zero
// value) so quick runs are reproducible by construction.
func QuickMPConfig() MPConfig {
	c := DefaultMPConfig()
	c.Processors = 4
	c.ContextCounts = []int{2, 4}
	c.Steps = 1
	c.Seed = 1
	return c
}

// MPCell is one (app, scheme, contexts) measurement.
type MPCell struct {
	App      string
	Scheme   core.Scheme
	Contexts int
	Cycles   int64
	// Speedup is execution time relative to the single-context run of
	// the same app (Table 10).
	Speedup   float64
	Breakdown core.Breakdown
	Completed bool

	CellStatus
}

func (c MPCell) at() cellSpec   { return cellSpec{c.App, c.Scheme, c.Contexts} }
func (c MPCell) ratio() float64 { return c.Speedup }

// MPResult holds the full multiprocessor evaluation.
type MPResult struct {
	Cfg   MPConfig
	Cells []MPCell
	// Failures counts failed cells; drivers exit non-zero when any cell
	// failed even though the rest of the grid completed.
	Failures int
	// Skipped counts cells lost to an interrupted (drained) run; they
	// render as SKIP and re-run on a journal resume.
	Skipped int `json:",omitempty"`
}

// Cell returns the measurement for (app, scheme, contexts).
func (r *MPResult) Cell(app string, s core.Scheme, n int) (MPCell, bool) {
	return findCell(r.Cells, cellSpec{app, s, n})
}

// MeanSpeedup is the geometric mean across apps for (scheme, contexts).
func (r *MPResult) MeanSpeedup(s core.Scheme, n int) float64 {
	m, _, _ := r.MeanSpeedupN(s, n)
	return m
}

// MeanSpeedupN additionally reports coverage; see meanRatio.
func (r *MPResult) MeanSpeedupN(s core.Scheme, n int) (mean float64, used, total int) {
	return meanRatio(r.Cells, s, n)
}

// MPCellRecord is the journaled outcome of one multiprocessor grid cell
// and the wire form a service worker reports for it. It mirrors
// mp.Result minus the functional memory image (megabytes per cell, and
// MPCell only consumes the digest). A failed cell is not Completed.
type MPCellRecord struct {
	Cycles    int64                `json:"cycles,omitempty"`
	Completed bool                 `json:"completed,omitempty"`
	Stats     core.Stats           `json:"stats"`
	Threads   int                  `json:"threads,omitempty"`
	MemHash   uint64               `json:"memHash,omitempty"`
	ArchHash  uint64               `json:"archHash,omitempty"`
	Metrics   *metrics.CellMetrics `json:"metrics,omitempty"`
	CellOutcome
}

func (cfg MPConfig) apps() []string {
	if cfg.Apps == nil {
		return MPAppOrder
	}
	return cfg.Apps
}

// multiprocessorGrid is the Table 10 evaluation: the subjects are the
// SPLASH-like applications, a cell's ratio its application's
// single-context execution time over its own.
var multiprocessorGrid = &machine[MPConfig, MPCellRecord, MPCell, MPResult]{
	name: GridMultiprocessor,
	sections: []section[MPResult]{
		{"table10", func(r *MPResult) string { return FormatTable10(r) + "\n\n" }},
		{"fig8", func(r *MPResult) string { return FormatMPFigure(r, core.Blocked, 8) + "\n" }},
		{"fig9", func(r *MPResult) string { return FormatMPFigure(r, core.Interleaved, 9) + "\n" }},
	},
	design: func(cfg MPConfig) design {
		return design{subjects: cfg.apps(), schemes: cfg.Schemes, contexts: cfg.ContextCounts,
			seed: cfg.Seed, parallelism: cfg.Parallelism, timeout: cfg.CellTimeout, guard: cfg.Guard}
	},
	lookup: func(app string) error {
		_, err := splash.Lookup(app)
		return err
	},
	attempt: func(ctx context.Context, cfg MPConfig, a cellAttempt) (*MPCellRecord, error) {
		app, err := splash.Lookup(a.subject)
		if err != nil {
			return nil, err
		}
		return mpAttempt(ctx, cfg, app, a)
	},
	outcome:  func(rec *MPCellRecord) *CellOutcome { return &rec.CellOutcome },
	measured: func(rec *MPCellRecord) bool { return rec.Completed },
	cell: func(sp cellSpec, st CellStatus, rec, base *MPCellRecord) MPCell {
		c := MPCell{App: sp.subject, Scheme: sp.scheme, Contexts: sp.contexts, CellStatus: st}
		if rec == nil {
			return c
		}
		c.Cycles = rec.Cycles
		c.Breakdown = rec.Stats.Breakdown()
		c.Completed = true
		c.Metrics = rec.Metrics
		if sp.baseline() {
			c.Speedup = 1
		} else if base != nil && base.Cycles > 0 && rec.Cycles > 0 {
			c.Speedup = float64(base.Cycles) / float64(rec.Cycles)
		}
		return c
	},
	result: func(cfg MPConfig, t tally[MPCell]) *MPResult {
		return &MPResult{Cfg: cfg, Cells: t.cells, Failures: t.failures, Skipped: t.skipped}
	},
}

// mpAttempt runs one attempt of a multiprocessor cell on app — the
// cell's, except in tests that substitute their own. An escalated re-run
// doubles the cycle limit as well (and with it the default
// LimitCycles/20 watchdog window); running into the limit itself is not
// a budget trip and is not retried — the cell already ran that far.
func mpAttempt(ctx context.Context, cfg MPConfig, app splash.App, a cellAttempt) (*MPCellRecord, error) {
	mcfg := mp.DefaultConfig(a.scheme, a.contexts)
	mcfg.Processors = cfg.Processors
	mcfg.LimitCycles = guard.Escalate(cfg.LimitCycles, a.escalation)
	mcfg.Coherence.Seed = a.seed
	mcfg.Guard = a.guard
	mcfg.Obs = cfg.Obs
	p := app.Program(splash.MPOptions(a.scheme, cfg.Processors*a.contexts, cfg.Steps, cfg.Scale))
	r, err := mp.RunCtx(ctx, p, mcfg)
	if err != nil {
		return nil, err
	}
	if !r.Completed {
		err := fmt.Errorf("%s under %v/%d exceeded the cycle limit", a.subject, a.scheme, a.contexts)
		if r.Diag != nil {
			// Carry the limit-time machine dump into the cell's
			// Diagnostic so the degraded grid reports where the cell
			// was wedged.
			return nil, guard.NewSimError("experiments.budget", err).At(r.Diag.Cycle).WithDiag(r.Diag)
		}
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &MPCellRecord{Cycles: r.Cycles, Completed: r.Completed, Stats: r.Stats,
		Threads: r.Threads, MemHash: r.MemHash, ArchHash: r.ArchHash, Metrics: r.Metrics}, nil
}

// MPGridSize returns the number of cells in cfg's multiprocessor grid —
// the valid index range for RunMPCell and AssembleMP.
func MPGridSize(cfg MPConfig) (int, error) { return multiprocessorGrid.size(cfg) }

// RunMPCell simulates one cell of cfg's multiprocessor grid and returns
// its journal/wire record, under the per-cell policy every driver shares
// (grid.runCell). The only non-nil error returns are a bad index and a
// cancellation of ctx itself.
func RunMPCell(ctx context.Context, cfg MPConfig, index int) (*MPCellRecord, error) {
	return multiprocessorGrid.runCell(ctx, cfg, index)
}

// AssembleMP folds index-ordered cell records into the evaluation
// result: speedups against each app's single-context baseline, failure
// and skip counts (grid.tabulate). A nil record renders as SKIP.
func AssembleMP(cfg MPConfig, recs []*MPCellRecord) (*MPResult, error) {
	return multiprocessorGrid.assemble(cfg, recs)
}

// RenderMPSections renders the multiprocessor sections the selection
// asks for, byte-identical to what cmd/experiments prints for them.
func RenderMPSections(sel func(string) bool, mpr *MPResult) string {
	return multiprocessorGrid.render(sel, mpr)
}

// RunMultiprocessor runs the full multiprocessor evaluation.
func RunMultiprocessor(cfg MPConfig) (*MPResult, error) {
	return RunMultiprocessorCtx(context.Background(), cfg)
}

// RunMultiprocessorCtx is RunMultiprocessor with cancellation and
// journaling (grid.run): cancelling ctx drains the grid — running cells
// stop within one lockstep block — and a cfg.Journal replays completed
// cells from a previous run and records new ones durably.
func RunMultiprocessorCtx(ctx context.Context, cfg MPConfig) (*MPResult, error) {
	return multiprocessorGrid.run(ctx, cfg, cfg.Journal)
}

// FormatTable10 renders the paper's Table 10: application speedup due to
// multiple contexts.
func FormatTable10(r *MPResult) string {
	return formatRatioTable("Table 10: Application speedup due to multiple contexts\n"+
		"(execution time relative to the single-context processor)\n\n",
		"speedup", r.Cfg.apps(), r.Cfg.ContextCounts, r.Cells)
}

// FormatMPFigure renders Figure 8 (blocked) or Figure 9 (interleaved): the
// execution-time breakdown per app, normalized to the single-context time.
func FormatMPFigure(r *MPResult, scheme core.Scheme, figure int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: execution time breakdown, %s scheme\n", figure, scheme)
	b.WriteString("(bar length = time relative to 1 context; B=busy s=short stall l=long stall M=memory Y=sync S=switch)\n\n")
	for _, a := range r.Cfg.apps() {
		base, ok := r.Cell(a, core.Single, 1)
		if !ok || base.Failed || base.Skipped || base.Cycles == 0 {
			if ok && base.Skipped {
				fmt.Fprintf(&b, "%s: baseline SKIPPED (run interrupted)\n", a)
			} else if ok && base.Failed {
				fmt.Fprintf(&b, "%s: baseline FAILED: %s\n", a, base.Failure)
			}
			continue
		}
		fmt.Fprintf(&b, "%s:\n", a)
		configs := []MPCell{base}
		for _, n := range r.Cfg.ContextCounts {
			if c, ok := r.Cell(a, scheme, n); ok {
				configs = append(configs, c)
			}
		}
		for _, c := range configs {
			if c.Skipped {
				fmt.Fprintf(&b, "  %d ctx SKIPPED (run interrupted)\n", c.Contexts)
				continue
			}
			if c.Failed {
				fmt.Fprintf(&b, "  %d ctx FAILED: %s\n", c.Contexts, c.Failure)
				continue
			}
			rel := float64(c.Cycles) / float64(base.Cycles)
			bd := c.Breakdown
			width := int(rel*40 + 0.5)
			if width < 1 {
				width = 1
			}
			bar := stats.Bar(width,
				[]float64{bd.Busy, bd.InstrShort, bd.InstrLong, bd.DataMem, bd.Sync, bd.Switch},
				[]rune{'B', 's', 'l', 'M', 'Y', 'S'})
			fmt.Fprintf(&b, "  %d ctx |%s| %.2f\n", c.Contexts, bar, rel)
		}
	}
	return b.String()
}

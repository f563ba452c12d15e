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
	"repro/internal/prog"
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

	// Failed marks a cell whose simulation errored (watchdog trip,
	// invariant violation, cycle-budget exhaustion, panic); Failure is
	// the one-line error and Diagnostic the structured dump when one was
	// attached. The rest of the grid is unaffected (graceful degradation).
	Failed     bool
	Failure    string
	Diagnostic string

	// Retried marks a cell whose first attempt tripped the liveness
	// watchdog and was deterministically re-run at a doubled cycle and
	// watchdog budget; the recorded outcome is the retry's.
	Retried bool `json:",omitempty"`

	// Skipped marks a cell that never completed because the run was
	// interrupted (SIGINT/SIGTERM drain or first-error cancellation).
	// Skipped cells carry no measurement and no failure diagnosis.
	Skipped bool `json:",omitempty"`

	// Metrics is the cell's observability record, nil unless MPConfig.Obs
	// enabled instrumentation.
	Metrics *metrics.CellMetrics `json:",omitempty"`
}

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
	for _, c := range r.Cells {
		if c.App == app && c.Scheme == s && c.Contexts == n {
			return c, true
		}
	}
	return MPCell{}, false
}

// MeanSpeedup is the geometric mean across apps for (scheme, contexts).
func (r *MPResult) MeanSpeedup(s core.Scheme, n int) float64 {
	m, _, _ := r.MeanSpeedupN(s, n)
	return m
}

// MeanSpeedupN additionally reports coverage: used is the number of cells
// that entered the mean, total the number of (s, n) cells in the grid.
// Failed cells and cells without a positive speedup (e.g. a lost
// baseline) are excluded from the mean rather than dragged in as zeros.
func (r *MPResult) MeanSpeedupN(s core.Scheme, n int) (mean float64, used, total int) {
	var xs []float64
	for _, c := range r.Cells {
		if c.Scheme == s && c.Contexts == n {
			total++
			if !c.Failed && !c.Skipped {
				xs = append(xs, c.Speedup)
			}
		}
	}
	mean, skipped := stats.GeoMean(xs)
	return mean, len(xs) - skipped, total
}

// mpSpec addresses one cell of the multiprocessor grid; like uniSpec,
// the index into mpSpecs(cfg) is the cell's identity everywhere.
type mpSpec struct {
	name     string
	app      splash.App
	scheme   core.Scheme
	contexts int
}

// mpSpecs enumerates cfg's grid in its canonical order: per app, the
// single-context baseline first, then schemes × context counts.
func mpSpecs(cfg MPConfig) ([]mpSpec, error) {
	appNames := cfg.Apps
	if appNames == nil {
		appNames = MPAppOrder
	}
	var specs []mpSpec
	for _, name := range appNames {
		app, err := splash.Lookup(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, mpSpec{name, app, core.Single, 1})
		for _, s := range cfg.Schemes {
			for _, n := range cfg.ContextCounts {
				specs = append(specs, mpSpec{name, app, s, n})
			}
		}
	}
	return specs, nil
}

// MPGridSize returns the number of cells in cfg's multiprocessor grid —
// the valid index range for RunMPCell and AssembleMP.
func MPGridSize(cfg MPConfig) (int, error) {
	specs, err := mpSpecs(cfg)
	if err != nil {
		return 0, err
	}
	return len(specs), nil
}

// RunMPCell simulates one cell of cfg's multiprocessor grid and returns
// its journal/wire record — the single copy of the per-cell policy, as
// RunUniCell is for the workstation grid. A liveness-watchdog trip or
// per-cell deadline is retried once at doubled budgets (cycle limit and
// watchdog window both double); cycle-budget exhaustion is NOT retried —
// the cell already ran to the configured limit. The only non-nil error
// returns are a bad index and a cancellation of ctx itself.
func RunMPCell(ctx context.Context, cfg MPConfig, index int) (*MPCellRecord, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	specs, err := mpSpecs(cfg)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= len(specs) {
		return nil, fmt.Errorf("experiments: multiprocessor cell %d outside grid [0,%d)", index, len(specs))
	}
	return runMPCellSpec(ctx, cfg, index, specs[index])
}

func runMPCellSpec(ctx context.Context, cfg MPConfig, i int, sp mpSpec) (*MPCellRecord, error) {
	attempt := func(attempt int) (*mp.Result, error) {
		mcfg := mp.DefaultConfig(sp.scheme, sp.contexts)
		mcfg.Processors = cfg.Processors
		mcfg.LimitCycles = cfg.LimitCycles
		mcfg.Coherence.Seed = DeriveSeed(cfg.Seed, i)
		mcfg.Guard = cellGuard(cfg.Guard, i)
		mcfg.Obs = cfg.Obs
		if attempt > 1 {
			// Escalate both budgets: the cycle limit (which also doubles the
			// default LimitCycles/20 watchdog window) and any explicit
			// window from the flags.
			mcfg.LimitCycles = guard.Escalate(mcfg.LimitCycles, attempt-1)
			if mcfg.Guard.WatchdogWindow > 0 {
				mcfg.Guard.WatchdogWindow = guard.Escalate(mcfg.Guard.WatchdogWindow, attempt-1)
			}
		}
		p := sp.app.Program(splash.Options{
			CodeBase:     0x0100_0000,
			DataBase:     0x5000_0000,
			Yield:        workstationYield(sp.scheme),
			AutoTolerate: sp.scheme != core.Single,
			NumThreads:   cfg.Processors * sp.contexts,
			Steps:        cfg.Steps,
			Scale:        cfg.Scale,
		})
		cellCtx, cancel, budget := withCellDeadline(ctx, cfg.CellTimeout, attempt)
		defer cancel()
		r, err := mp.RunCtx(cellCtx, p, mcfg)
		if err != nil {
			return nil, classifyDeadline(ctx, cellCtx, budget, err)
		}
		if !r.Completed {
			err := fmt.Errorf("%s under %v/%d exceeded the cycle limit", sp.name, sp.scheme, sp.contexts)
			if r.Diag != nil {
				// Carry the limit-time machine dump into the cell's
				// Diagnostic so the degraded grid reports where the cell
				// was wedged.
				return nil, guard.NewSimError("experiments.budget", err).At(r.Diag.Cycle).WithDiag(r.Diag)
			}
			return nil, fmt.Errorf("experiments: %w", err)
		}
		return r, nil
	}
	policy := guard.GridRetry()
	retried := false
	var r *mp.Result
	var err error
	for n := 1; ; n++ {
		r, err = attempt(n)
		if err == nil || !guard.IsBudgetTrip(err) || ctx.Err() != nil || !policy.Allowed(n+1) {
			break
		}
		retried = true
	}
	if err != nil {
		if guard.IsCancellation(err) && ctx.Err() != nil {
			return nil, err // drained mid-cell: renders as SKIP, not journaled
		}
		rec := &MPCellRecord{Failed: true, Retried: retried}
		rec.Failure, rec.Diagnostic = failureStrings(err)
		return rec, nil
	}
	return &MPCellRecord{Cycles: r.Cycles, Completed: r.Completed, Stats: r.Stats,
		Threads: r.Threads, MemHash: r.MemHash, ArchHash: r.ArchHash,
		Metrics: r.Metrics, Retried: retried}, nil
}

// AssembleMP folds index-ordered cell records into the evaluation
// result: speedups against each app's single-context baseline, failure
// and skip counts. A nil record renders as SKIP. Assembly is pure; see
// AssembleUni.
func AssembleMP(cfg MPConfig, recs []*MPCellRecord) (*MPResult, error) {
	specs, err := mpSpecs(cfg)
	if err != nil {
		return nil, err
	}
	if len(recs) != len(specs) {
		return nil, fmt.Errorf("experiments: multiprocessor grid has %d cells, got %d records", len(specs), len(recs))
	}
	res := &MPResult{Cfg: cfg}
	var baseCycles int64
	for i, sp := range specs {
		rec := recs[i]
		cell := MPCell{App: sp.name, Scheme: sp.scheme, Contexts: sp.contexts}
		isBase := sp.scheme == core.Single && sp.contexts == 1
		switch {
		case rec == nil:
			// The run was interrupted before this cell completed.
			cell.Skipped = true
			res.Skipped++
			if isBase {
				baseCycles = 0
			}
		case rec.Failed:
			// The cell failed (watchdog, deadline, invariant, cycle budget,
			// panic): record it and keep going. A failed baseline zeroes its
			// app's speedups but costs nothing else.
			cell.Retried = rec.Retried
			cell.Failed = true
			cell.Failure, cell.Diagnostic = rec.Failure, rec.Diagnostic
			res.Failures++
			if isBase {
				baseCycles = 0
			}
		default:
			cell.Retried = rec.Retried
			cell.Cycles = rec.Cycles
			cell.Breakdown = rec.Stats.Breakdown()
			cell.Completed = true
			cell.Metrics = rec.Metrics
			if isBase {
				baseCycles = rec.Cycles
				cell.Speedup = 1
			} else if baseCycles > 0 && rec.Cycles > 0 {
				cell.Speedup = float64(baseCycles) / float64(rec.Cycles)
			}
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// RunMultiprocessor runs the full multiprocessor evaluation. Like
// RunUniprocessor, the (app, scheme, contexts) cells are independent
// simulations, so they fan out across cfg.Parallelism workers with
// per-cell derived seeds and index-ordered result collection: output is
// byte-identical at every parallelism level.
func RunMultiprocessor(cfg MPConfig) (*MPResult, error) {
	return RunMultiprocessorCtx(context.Background(), cfg)
}

// RunMultiprocessorCtx is RunMultiprocessor with cancellation and
// journaling: cancelling ctx drains the grid (queued cells never start,
// running cells stop within one lockstep block, both render as SKIP),
// and a cfg.Journal replays completed cells from a previous run and
// records new ones durably. A cell whose first attempt trips the
// liveness watchdog is retried once at a doubled cycle and watchdog
// budget with the same derived seed; cycle-budget exhaustion is NOT
// retried — it already ran to the configured limit.
func RunMultiprocessorCtx(ctx context.Context, cfg MPConfig) (*MPResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	specs, err := mpSpecs(cfg)
	if err != nil {
		return nil, err
	}
	j := cfg.Journal
	recs := make([]*MPCellRecord, len(specs))
	failures := runCellsAll(ctx, cfg.Parallelism, len(specs), func(ctx context.Context, i int) error {
		var rec MPCellRecord
		if j.Replay(GridMultiprocessor, i, &rec) {
			recs[i] = &rec
			return nil
		}
		out, err := runMPCellSpec(ctx, cfg, i, specs[i])
		if err != nil {
			return nil // drained mid-cell: renders as SKIP, not journaled
		}
		recs[i] = out
		j.Record(GridMultiprocessor, i, out)
		return nil
	})
	// Failures escaping the per-cell classification above are panics
	// recovered by the pool; fold them in as failed cells.
	for _, f := range failures {
		rec := &MPCellRecord{Failed: true}
		rec.Failure, rec.Diagnostic = failureStrings(f.Err)
		recs[f.Index] = rec
		j.Record(GridMultiprocessor, f.Index, rec)
	}
	res, err := AssembleMP(cfg, recs)
	if err != nil {
		return nil, err
	}
	if err := j.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func workstationYield(s core.Scheme) prog.YieldMode {
	switch s {
	case core.Blocked, core.BlockedFast:
		return prog.YieldSwitch
	case core.Interleaved:
		return prog.YieldBackoff
	default:
		return prog.YieldNone
	}
}

// FormatTable10 renders the paper's Table 10: application speedup due to
// multiple contexts.
func FormatTable10(r *MPResult) string {
	var b strings.Builder
	b.WriteString("Table 10: Application speedup due to multiple contexts\n")
	b.WriteString("(execution time relative to the single-context processor)\n\n")
	appNames := r.Cfg.Apps
	if appNames == nil {
		appNames = MPAppOrder
	}
	header := append([]string{"Contexts", "Scheme"}, appNames...)
	header = append(header, "Mean")
	t := stats.NewTable(header...)
	var usedSum, totalSum int
	for _, n := range r.Cfg.ContextCounts {
		for _, s := range []core.Scheme{core.Interleaved, core.Blocked} {
			row := []string{fmt.Sprintf("%d", n), s.String()}
			found := false
			for _, a := range appNames {
				if c, ok := r.Cell(a, s, n); ok {
					switch {
					case c.Skipped:
						row = append(row, "SKIP")
					case c.Failed:
						row = append(row, "FAIL")
					default:
						row = append(row, stats.Ratio(c.Speedup))
					}
					found = true
				} else {
					row = append(row, "-")
				}
			}
			if !found {
				continue
			}
			mean, used, total := r.MeanSpeedupN(s, n)
			usedSum += used
			totalSum += total
			row = append(row, stats.Ratio(mean))
			t.AddRow(row...)
		}
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nMean: geometric mean over cells with a positive speedup (%d of %d cells).\n", usedSum, totalSum)
	return b.String()
}

// FormatMPFigure renders Figure 8 (blocked) or Figure 9 (interleaved): the
// execution-time breakdown per app, normalized to the single-context time.
func FormatMPFigure(r *MPResult, scheme core.Scheme, figure int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: execution time breakdown, %s scheme\n", figure, scheme)
	b.WriteString("(bar length = time relative to 1 context; B=busy s=short stall l=long stall M=memory Y=sync S=switch)\n\n")
	appNames := r.Cfg.Apps
	if appNames == nil {
		appNames = MPAppOrder
	}
	for _, a := range appNames {
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

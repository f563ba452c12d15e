package fuzz

// The sweep driver: generate programs from a base seed, fan each
// program's cell grid through the experiment pool, check the oracle,
// shrink failures into reproducers, and render a deterministic report
// (byte-identical at any parallelism level — results are collected by
// cell index, and program reports are emitted in program order).

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/experiments"
	"repro/internal/guard"
)

// SweepConfig parameterizes a differential sweep.
type SweepConfig struct {
	Programs    int    `json:"programs"`
	BaseSeed    int64  `json:"base_seed"`
	Threads     int    `json:"threads,omitempty"` // 0: vary 2..4 per program
	Parallelism int    `json:"-"`
	Quick       bool   `json:"quick,omitempty"`
	CorpusDir   string `json:"-"` // "" disables reproducer writing
	Limits      Limits `json:"-"`
	// Mut applies a deliberate scheme-breaking mutation to every
	// generated program (test-only; proves the oracle catches bugs).
	Mut string `json:"mut,omitempty"`
	// ShrinkBudget bounds oracle evaluations per shrink (0: default).
	ShrinkBudget int `json:"-"`
}

// ProgramReport is the per-program outcome.
type ProgramReport struct {
	Index       int          `json:"index"`
	Seed        int64        `json:"seed"`
	Threads     int          `json:"threads"`
	Cells       int          `json:"cells"`
	CellErrors  []string     `json:"cell_errors,omitempty"`
	Divergences []Divergence `json:"divergences,omitempty"`
	// Shrinking outcome, present only when the program failed and a
	// corpus directory was configured.
	Repro       string `json:"repro,omitempty"`
	OrigItems   int    `json:"orig_items,omitempty"`
	ShrunkItems int    `json:"shrunk_items,omitempty"`
}

// SweepReport is the full sweep outcome.
type SweepReport struct {
	Config      SweepConfig     `json:"config"`
	Programs    []ProgramReport `json:"programs"`
	TotalCells  int             `json:"total_cells"`
	Divergences int             `json:"divergences"`
	CellErrors  int             `json:"cell_errors"`
	Interrupted bool            `json:"interrupted,omitempty"`
}

// Clean reports whether the sweep found nothing.
func (r *SweepReport) Clean() bool { return r.Divergences == 0 && r.CellErrors == 0 }

// Validate reports a configuration no sweep should start: no programs,
// a thread count or a mutation every generated Spec would fail, or a
// negative budget.
func (c SweepConfig) Validate() error {
	if c.Programs < 1 {
		return fmt.Errorf("fuzz: %d programs, want at least 1", c.Programs)
	}
	if c.Limits.MaxCycles < 0 || c.Limits.MaxSteps < 0 {
		return fmt.Errorf("fuzz: negative cell budget (cycles %d, steps %d)", c.Limits.MaxCycles, c.Limits.MaxSteps)
	}
	return checkKnobs(c.threadsFor(0), c.Mut)
}

// threadsFor picks the thread count of program i: fixed when configured,
// else cycling 2, 3, 4 so every sweep covers odd and even splits.
func (c SweepConfig) threadsFor(i int) int {
	if c.Threads != 0 {
		return c.Threads
	}
	return 2 + i%3
}

// RunProgram runs one spec's full cell grid through the pool and checks
// the oracle. Cell errors become report entries; only cancellation and
// spec-level build failures return an error.
func RunProgram(ctx context.Context, s *Spec, quick bool, lim Limits, pool *experiments.Pool) ([]Cell, []*CellResult, error) {
	cells := PlanCells(s, quick)
	results := make([]*CellResult, len(cells))
	err := pool.Run(ctx, len(cells), func(ctx context.Context, i int) error {
		res, err := RunCell(ctx, s, cells[i], lim)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return cells, results, nil
}

// Sweep runs the full differential sweep. On cancellation it returns the
// report of the programs completed so far with Interrupted set, plus the
// cancellation error.
func Sweep(ctx context.Context, cfg SweepConfig) (*SweepReport, error) {
	pool := experiments.NewPool(cfg.Parallelism)
	rep := &SweepReport{Config: cfg}
	for i := 0; i < cfg.Programs; i++ {
		if ctx.Err() != nil {
			rep.Interrupted = true
			return rep, ctx.Err()
		}
		seed := experiments.DeriveSeed(cfg.BaseSeed, i)
		spec := Generate(seed, cfg.threadsFor(i))
		spec.Mut = cfg.Mut
		pr := ProgramReport{Index: i, Seed: seed, Threads: spec.Threads}
		cells, results, err := RunProgram(ctx, spec, cfg.Quick, cfg.Limits, pool)
		if err != nil {
			if guard.IsCancellation(err) || ctx.Err() != nil {
				rep.Interrupted = true
				return rep, err
			}
			return rep, err
		}
		pr.Cells = len(cells)
		rep.TotalCells += len(cells)
		for _, res := range results {
			if res != nil && res.Err != "" {
				pr.CellErrors = append(pr.CellErrors, res.Key+": "+res.Err)
			}
		}
		pr.Divergences = Check(cells, results)
		rep.Divergences += len(pr.Divergences)
		rep.CellErrors += len(pr.CellErrors)

		if (len(pr.Divergences) > 0 || len(pr.CellErrors) > 0) && cfg.CorpusDir != "" {
			min, err := Shrink(ctx, spec, cfg.Quick, cfg.Limits, pool, cfg.ShrinkBudget)
			if err != nil {
				if guard.IsCancellation(err) || ctx.Err() != nil {
					rep.Interrupted = true
					rep.Programs = append(rep.Programs, pr)
					return rep, err
				}
				return rep, err
			}
			pr.OrigItems = spec.Items()
			pr.ShrunkItems = min.Items()
			dir, werr := WriteReproducer(cfg.CorpusDir, min, pr.Divergences, pr.CellErrors)
			if werr != nil {
				return rep, werr
			}
			pr.Repro = dir
		}
		rep.Programs = append(rep.Programs, pr)
	}
	return rep, nil
}

// Render writes the human-readable sweep report. Output is fully
// deterministic: program order, cell-index-ordered divergences, and
// sorted error lists.
func (r *SweepReport) Render(w io.Writer) {
	fmt.Fprintf(w, "differential sweep: %d programs, %d cells, base seed %d\n",
		len(r.Programs), r.TotalCells, r.Config.BaseSeed)
	if r.Config.Mut != "" {
		fmt.Fprintf(w, "injected mutation: %s\n", r.Config.Mut)
	}
	for _, pr := range r.Programs {
		status := "ok"
		if len(pr.Divergences) > 0 || len(pr.CellErrors) > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%3d] seed %-20d T=%d cells=%-3d %s\n", pr.Index, pr.Seed, pr.Threads, pr.Cells, status)
		errs := append([]string(nil), pr.CellErrors...)
		sort.Strings(errs)
		for _, e := range errs {
			fmt.Fprintf(w, "        error: %s\n", e)
		}
		for _, d := range pr.Divergences {
			fmt.Fprintf(w, "        divergence: %s\n", d)
		}
		if pr.Repro != "" {
			fmt.Fprintf(w, "        reproducer: %s (%d -> %d items)\n", pr.Repro, pr.OrigItems, pr.ShrunkItems)
		}
	}
	if r.Interrupted {
		fmt.Fprintf(w, "interrupted: %d/%d programs completed\n", len(r.Programs), r.Config.Programs)
		return
	}
	if r.Clean() {
		fmt.Fprintf(w, "clean sweep: %d cells, all orderings/schemes/machines agree\n", r.TotalCells)
	} else {
		fmt.Fprintf(w, "FAIL: %d divergences, %d cell errors\n", r.Divergences, r.CellErrors)
	}
}

package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/mp"
	"repro/internal/splash"
	"repro/internal/workstation"
)

// A cell is its configuration. Every workstation and multiprocessor
// simulation an experiment runs — a grid cell, an ablation variant, a
// sweep point — is seeded from its subject and its machine alone: the
// workload mix or application, and the simulator configuration with the
// seed, the measurement-time overrides and the harness options
// (hardening, observability, cycle budget) removed. So one configuration
// prints one number wherever it runs: in the full grid, in a subset grid,
// in an ablation row or on a sweep, and on a retry at doubled budgets.
// Sweep points that differ only in Measure share a seed, and with it a
// warm-up prefix the sweep planner can fork from; a snapshot codec bump
// re-seeds nothing, because the codec version is no part of a machine.

// configSum digests a configuration by its JSON encoding. Every config
// here is plain data, so one that does not encode is a programming
// error, and it panics: the pool turns that into the cell's failure.
func configSum(v any) [sha256.Size]byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Errorf("experiments: config does not encode: %w", err))
	}
	return sha256.Sum256(data)
}

// seedKey is the DeriveSeed cell key of a subject on a machine.
func seedKey(subject string, machine any) int {
	sum := configSum(struct {
		Subject string
		Machine any
	}{subject, machine})
	return int(binary.LittleEndian.Uint64(sum[:8]))
}

// workstationMachine is the one rule for which workstation fields are
// the machine: w without its seed, its measurement-time overrides and
// the harness options (hardening, observability, run-time chaos state),
// and without a core override that restates the scheme's default core.
func workstationMachine(w workstation.Config) workstation.Config {
	w.Core = defaultCore(w.Core, w.Scheme, w.Contexts)
	w.Seed = 0
	w.Measure = workstation.MeasureOverrides{}
	w.Guard = guard.Options{}
	w.Obs = metrics.Options{}
	w.Cache.Chaos = nil
	return w
}

// mpMachine is workstationMachine's rule for a multiprocessor: c without
// its seed, its cycle budget and the harness options (hardening,
// observability, switch trace, retirement hashes, run-time chaos state).
func mpMachine(c mp.Config) mp.Config {
	c.Core = defaultCore(c.Core, c.Scheme, c.Contexts)
	c.Coherence.Seed = 0
	c.Coherence.Chaos = nil
	c.Guard = guard.Options{}
	c.Obs = metrics.Options{}
	c.LimitCycles = 0
	c.SwitchTrace, c.Retire = false, nil
	return c
}

// defaultCore is a core override, or nil for one that is the scheme's
// default core.
func defaultCore(c *core.Config, s core.Scheme, contexts int) *core.Config {
	if c != nil && *c == core.DefaultConfig(s, contexts) {
		return nil
	}
	return c
}

// seedWorkstation seeds a workstation cell of workload under the base
// seed: the machine's seed and, under -chaos, its private perturbation
// stream both derive from the cell's key. The cell takes its machine's
// form of the core override, so equal machines are equal configs.
func seedWorkstation(base int64, workload string, w workstation.Config) workstation.Config {
	m := workstationMachine(w)
	k := seedKey(workload, m)
	w.Core = m.Core
	w.Seed = DeriveSeed(base, k)
	w.Guard = cellGuard(w.Guard, k)
	return w
}

// seedMP seeds a multiprocessor cell of app, linked with opts, under the
// base seed, as seedWorkstation does a workstation cell.
func seedMP(base int64, app string, opts splash.Options, c mp.Config) mp.Config {
	m := mpMachine(c)
	k := seedKey(app, struct {
		Program splash.Options
		Config  mp.Config
	}{opts, m})
	c.Core = m.Core
	c.Coherence.Seed = DeriveSeed(base, k)
	c.Guard = cellGuard(c.Guard, k)
	return c
}

// CellCounts counts the cells this process has simulated: Simulated from
// scratch, Forked from a shared warm-up checkpoint, and Shared — served
// by a run's memo without simulating at all.
type CellCounts struct {
	Simulated, Forked, Shared int64
}

var cellCounts struct{ simulated, forked, shared atomic.Int64 }

// Cells returns the process's cell counts so far; one run's counts are
// the difference across it (CellCounts.Sub).
func Cells() CellCounts {
	return CellCounts{cellCounts.simulated.Load(), cellCounts.forked.Load(), cellCounts.shared.Load()}
}

// Sub is the counts since before.
func (c CellCounts) Sub(before CellCounts) CellCounts {
	return CellCounts{c.Simulated - before.Simulated, c.Forked - before.Forked, c.Shared - before.Shared}
}

func (c CellCounts) String() string {
	return fmt.Sprintf("[cells: %d simulated, %d forked, %d shared]", c.Simulated, c.Forked, c.Shared)
}

// A Run is one evaluation run: every section of one cmd/experiments
// invocation. It is one queue and one memo. Every cell task a pool
// dispatches under the run's context holds one of its -j slots while it
// runs, so the sections share one bound on concurrent simulations; and
// each distinct cell — keyed by its seeded configuration, Measure
// included — is simulated once, however many sections ask for it,
// single-flight. A task that asks for a cell another is simulating keeps
// its slot while it waits: the leader holds a slot of its own, so the
// wait always ends. A cell that fails is not stored: the next caller
// simulates it again. Outside a run (a service worker, RunUniCell, a
// study called on its own) every call simulates every cell it names.
type Run struct {
	slots chan struct{}
	mu    sync.Mutex
	memo  map[[sha256.Size]byte]*flight
}

// flight is one cell of a run's memo: done closes when its leader has
// finished, and val is the result when ok.
type flight struct {
	done chan struct{}
	val  any
	ok   bool
}

// NewRun returns a run of the given parallelism; values <= 0 select
// DefaultParallelism.
func NewRun(parallelism int) *Run {
	if parallelism <= 0 {
		parallelism = DefaultParallelism()
	}
	return &Run{slots: make(chan struct{}, parallelism), memo: map[[sha256.Size]byte]*flight{}}
}

type runKey struct{}

// Context returns ctx with r as its run: the experiments driven under it
// share r's slots and memo.
func (r *Run) Context(ctx context.Context) context.Context {
	return context.WithValue(ctx, runKey{}, r)
}

func runOf(ctx context.Context) *Run {
	r, _ := ctx.Value(runKey{}).(*Run)
	return r
}

// inSlot runs task under one of ctx's run's slots, waiting for one
// first; outside a run it runs task at once. A drain while the task
// waits returns the cancellation.
func inSlot(ctx context.Context, task func(ctx context.Context) error) error {
	r := runOf(ctx)
	if r == nil {
		return task(ctx)
	}
	select {
	case r.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-r.slots }()
	return task(ctx)
}

// memo returns the result of sim, the simulation of the cell key names,
// once per run: the first caller simulates it and the callers that ask
// while it runs wait for that result. Outside a run it calls sim. The
// simulation runs under its caller's wall-clock budget (budgeted); a
// wait spends none of it.
func memo[T any](ctx context.Context, key any, sim func(ctx context.Context) (T, error)) (T, error) {
	r := runOf(ctx)
	if r == nil {
		return budgeted(ctx, sim)
	}
	k := configSum(key)
	for {
		r.mu.Lock()
		f := r.memo[k]
		if f == nil {
			f = &flight{done: make(chan struct{})}
			r.memo[k] = f
			r.mu.Unlock()
			// Settle the flight even when sim panics: a result is
			// stored, a failed cell forgotten.
			defer func() {
				r.mu.Lock()
				if !f.ok {
					delete(r.memo, k)
				}
				r.mu.Unlock()
				close(f.done)
			}()
			v, err := budgeted(ctx, sim)
			if err == nil {
				f.val, f.ok = v, true
			}
			return v, err
		}
		r.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
		if f.ok {
			cellCounts.shared.Add(1)
			return f.val.(T), nil
		}
		// The leader failed and its cell is not stored: ask again.
	}
}

// workstationCell is the memo key of a seeded workstation cell.
type workstationCell struct {
	Workload string
	Config   workstation.Config
}

// runWorkstation simulates one seeded workstation cell from scratch.
func runWorkstation(ctx context.Context, kernels []apps.Kernel, w workstation.Config) (*workstation.Result, error) {
	cellCounts.simulated.Add(1)
	return workstation.RunCtx(ctx, kernels, w)
}

// mpCell is the memo key of a seeded multiprocessor cell.
type mpCell struct {
	App     string
	Program splash.Options
	Config  mp.Config
}

// runMP simulates one seeded multiprocessor cell of app, linked with
// opts, under c, once per run (memo). A run that does not complete within
// c's cycle limit is a budget failure carrying the limit-time dump.
func runMP(ctx context.Context, app splash.App, opts splash.Options, c mp.Config) (*MPCellRecord, error) {
	return memo(ctx, mpCell{app.Name, opts, c}, func(ctx context.Context) (*MPCellRecord, error) {
		cellCounts.simulated.Add(1)
		r, err := mp.RunCtx(ctx, app.Program(opts), c)
		if err != nil {
			return nil, err
		}
		if !r.Completed {
			err := fmt.Errorf("%s under %v/%d exceeded the cycle limit", app.Name, c.Scheme, c.Contexts)
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
	})
}

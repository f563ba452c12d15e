package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/guard"
	"repro/internal/seeded"
)

// The parallel experiment engine. Every experiment in this package is a
// grid of independent simulation cells — one (workload, scheme, contexts)
// or (app, scheme, contexts) configuration per cell — and each cell owns
// a private seeded PRNG, so cells can run on separate OS threads without
// sharing any mutable state. The pool fans cells out across a bounded set
// of workers and collects results by cell index, never by completion
// order, so a parallel run is byte-identical to a serial one. This mirrors
// the paper's own theme: fill idle issue slots (here, idle cores) with
// independent work.

// DefaultParallelism is the worker count used when a config's Parallelism
// field is zero: the scheduler's GOMAXPROCS, i.e. one worker per core the
// runtime will actually use.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// DeriveSeed deterministically derives the seed of cell i from a config's
// base seed; an experiment cell's i is the key of its configuration
// (cell.go), the fuzzer's its program's index. The derivation depends
// only on (base, cell) — never on execution order or worker identity —
// so every cell sees the same PRNG stream at any parallelism level. Cells are decorrelated by a splitmix64
// finalizer rather than by consecutive integers, which many PRNGs map to
// correlated streams.
func DeriveSeed(base int64, cell int) int64 {
	return int64(seeded.Mix(uint64(base) + uint64(cell+1)*0x9E3779B97F4A7C15))
}

// Pool runs independent experiment cells across a bounded set of workers.
// The zero value is not useful; use NewPool.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given parallelism; values <= 0 select
// DefaultParallelism. A parallelism of 1 runs every task inline on the
// caller's goroutine — exactly the pre-pool serial path.
func NewPool(parallelism int) *Pool {
	if parallelism <= 0 {
		parallelism = DefaultParallelism()
	}
	return &Pool{workers: parallelism}
}

// dispatch is the pool's one loop: task(ctx, i) for every i in [0, n), at
// most p.workers at a time, every genuine failure handed to failed (one
// call at a time). A cancelled ctx drains it — queued cells never start —
// and a cell the cancellation stopped mid-run surfaces a cancellation
// artifact, which is not a failure and is dropped: reported, a cancelled
// low-index cell would mask the failure that caused the cancellation. A
// panicking task is recovered and surfaced as that cell's failure, so
// one diverging simulation cannot take down the whole run. One worker
// runs every task inline on the caller's goroutine. Under a Run's
// context every task also holds one of the run's slots while it runs,
// so that all the pools of one run share its -j bound.
func (p *Pool) dispatch(ctx context.Context, n int, task func(ctx context.Context, i int) error, failed func(i int, err error)) {
	call := callRecovered(task)
	var mu sync.Mutex
	cell := func(i int) {
		if ctx.Err() != nil {
			return
		}
		err := inSlot(ctx, func(ctx context.Context) error { return call(ctx, i) })
		if err != nil && !(guard.IsCancellation(err) && ctx.Err() != nil) {
			mu.Lock()
			failed(i, err)
			mu.Unlock()
		}
	}
	workers := min(p.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			cell(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				cell(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Run executes task(ctx, i) for every i in [0, n), at most p.workers at a
// time. The task for cell i must write its result into slot i of a
// caller-owned pre-sized slice; Run itself imposes no result type.
//
// The lowest-indexed failure observed — the error a serial run would hit
// first — cancels the context handed to the remaining tasks and is
// returned after all started workers drain; queued cells that have not
// started are skipped. With no failure, Run reports ctx's own
// cancellation, if any.
func (p *Pool) Run(ctx context.Context, n int, task func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var first *CellError
	p.dispatch(ctx, n, task, func(i int, err error) {
		if first == nil || i < first.Index {
			first = &CellError{Index: i, Err: err}
		}
		cancel()
	})
	if first != nil {
		return first.Err
	}
	return ctx.Err()
}

// callRecovered wraps a task so a panic becomes that cell's error. A
// panic value that is already an error (e.g. a *guard.SimError thrown by
// a simulator hot path) is wrapped with %w, so errors.As still reaches
// the typed error and its diagnostic through the recovery.
func callRecovered(task func(ctx context.Context, i int) error) func(ctx context.Context, i int) error {
	return func(ctx context.Context, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				if cause, ok := r.(error); ok {
					err = fmt.Errorf("experiments: cell %d panicked: %w", i, cause)
				} else {
					err = fmt.Errorf("experiments: cell %d panicked: %v", i, r)
				}
			}
		}()
		return task(ctx, i)
	}
}

// CellError records one failed cell of a RunAll sweep.
type CellError struct {
	Index int
	Err   error
}

// Error renders the failure with its cell index.
func (e CellError) Error() string { return fmt.Sprintf("cell %d: %v", e.Index, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e CellError) Unwrap() error { return e.Err }

// RunAll executes task(ctx, i) for every i in [0, n) like Run, but never
// cancels on failure: every cell runs to its own conclusion and the
// failures come back in ascending cell order. This is the graceful-
// degradation mode the experiment grids use — one diverging or
// deadlocked cell costs that cell, not the whole grid.
func (p *Pool) RunAll(ctx context.Context, n int, task func(ctx context.Context, i int) error) []CellError {
	if ctx == nil {
		ctx = context.Background()
	}
	var failures []CellError
	p.dispatch(ctx, n, task, func(i int, err error) {
		failures = append(failures, CellError{Index: i, Err: err})
	})
	sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })
	return failures
}

// runCells is the package-internal convenience used by every experiment
// driver: fan the n cells of a grid out at the given parallelism and
// return the lowest-indexed error, with results landing in the caller's
// pre-sized, index-addressed slices. The context is handed to each cell
// task so cancellation (first failure or a signal drain) stops running
// simulations in bounded time, not just queued dispatch.
func runCells(ctx context.Context, parallelism, n int, task func(ctx context.Context, i int) error) error {
	return NewPool(parallelism).Run(ctx, n, task)
}

// runCellsAll is runCells without first-failure cancellation: the whole
// grid runs and the per-cell failures come back in cell order.
func runCellsAll(ctx context.Context, parallelism, n int, task func(ctx context.Context, i int) error) []CellError {
	return NewPool(parallelism).RunAll(ctx, n, task)
}

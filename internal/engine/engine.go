// Package engine is the single block-stepping loop shared by every
// simulation driver: core's guarded uniprocessor runs, the workstation
// slice driver, and the multiprocessor lockstep driver.
//
// The paper's cycle-exact methodology rests on one invariant: a machine
// advances in fixed 64-cycle blocks, and every piece of harness
// bookkeeping — halt checks, watchdog observations, invariant checks,
// cancellation polls, metrics cell samples — happens only at block
// boundaries, at the same absolute cycles regardless of how the span was
// chunked, fast-forwarded, or resumed from a checkpoint. That is what
// makes fast-forward ON vs OFF, forked vs scratch, and interrupted vs
// uninterrupted runs byte-identical.
// Implementing the loop once per driver let the copies drift
// (independently duplicated 64s, diverging watchdog reports, a
// truncated default window); this package is the one copy.
//
// The engine is specialized at construction, not per block: hooks left
// nil and cadences left zero are compiled out of the boundary schedule,
// so a detached, unobserved, unguarded run is a single Advance call
// over the whole span and the fast-forward engine's bulk skips stay
// unclamped. The hot per-cycle work stays inside the driver's Advance
// closure (the way mp's advancePlain/advanceObserved are selected once
// per run); the engine only decides where boundaries fall and what runs
// at each one.
package engine

import (
	"context"
	"fmt"

	"repro/internal/guard"
)

// BlockCycles is the lockstep block length: halt checks, watchdog
// observations, cancellation polls, metrics cell samples and checkpoint
// boundaries all land on multiples of it, so fast-forward ON vs OFF —
// and forked vs scratch — runs are byte-identical. Splitting a run into
// BlockCycles sub-chunks is cycle-exact (a chunked run is byte-identical
// to an unchunked one — pinned by the fast-forward golden tests), so an
// attached context costs one poll per block, never a timing change.
const BlockCycles = 64

// DefaultWatchdogDivisor sets the budgeted-run watchdog policy: the
// default window is LimitCycles/20, i.e. a wedged run is reported within
// 5% of its cycle budget instead of silently burning the rest.
const DefaultWatchdogDivisor = 20

// MinWatchdogWindow is the floor on the derived default window. Without
// it, budgets under DefaultWatchdogDivisor cycles truncate the division
// to zero, which ResolveWatchdog reads as "no default" — silently
// disarming the watchdog exactly when a window is cheapest to honor.
const MinWatchdogWindow = BlockCycles

// DefaultWatchdogWindow returns the default liveness window for a run
// bounded by limitCycles: limitCycles/DefaultWatchdogDivisor, clamped
// below to MinWatchdogWindow.
func DefaultWatchdogWindow(limitCycles int64) int64 {
	w := limitCycles / DefaultWatchdogDivisor
	if w < MinWatchdogWindow {
		w = MinWatchdogWindow
	}
	return w
}

// Engine drives one machine in blocks, running the fixed boundary
// sequence — metrics sample, halt check, cancellation poll, guard
// (watchdog, invariant checks) — at the cycles the configured cadences
// prescribe. The zero value of every optional field
// disables that boundary stream.
//
// Construct one per machine (or per guarded run), set the fields, and
// call Run; the cursor fields make cadences absolute, so a run resumed
// from a checkpoint observes the watchdog and samples cells at the
// exact cycles the uninterrupted run would.
type Engine struct {
	// Advance runs the machine over [now, target) and returns the cycle
	// it settled at. A driver whose machine can halt mid-span (core's
	// RunUntilHalted) may settle early on the halt cycle; every other
	// driver settles exactly at target.
	Advance func(now, target int64) int64

	// Halted reports whether every thread has halted; consulted at each
	// block boundary and — when HaltEvery is zero — once before the
	// first block. Nil means the machine cannot halt (the workstation
	// workload runs a fixed number of slices).
	Halted func() bool

	// HaltEvery, when positive, fixes every Advance span to that block
	// length and lets the final block overrun the end of the run to the
	// next boundary: the multiprocessor's lockstep grid, where a block
	// always runs to a full boundary so fast-forward ON and OFF settle
	// every processor at identical cycles. Zero coalesces a span up to
	// the next due boundary into one Advance call.
	HaltEvery int64

	// Watchdog, when non-nil, is observed at every guard boundary with
	// Progress(); a trip returns the unified guard.OpWatchdog SimError.
	Watchdog *guard.Watchdog
	// Progress feeds the watchdog: the machine-wide count of useful
	// (non-synchronization) issue slots. Required when Watchdog is set.
	Progress func() int64
	// Checkers are invariant checkers polled at every guard boundary, in
	// order; the first violation aborts the run.
	Checkers []guard.InvariantChecker
	// GuardEvery is the guard-boundary cadence (guard.Options.
	// CheckCadence); boundaries fall at NextGuard, then every GuardEvery
	// cycles. With HaltEvery set, guard work lands on the first block
	// boundary at or past the due cycle instead of splitting a block.
	GuardEvery int64
	// GuardAtEnd additionally runs the guard sequence at the final
	// (possibly partial) boundary of the span, the way the chunked
	// uniprocessor drivers always have; the lockstep driver leaves it
	// false — its spans already end on whole blocks.
	GuardAtEnd bool
	// Describe, when non-nil, fills the driver-specific fields of a
	// watchdog trip diagnostic (Scheme, Procs, Lines, Notes,
	// MachineHash); the engine fills Reason, Cycle and Window.
	Describe func(d *guard.Diagnostic)

	// Sample, when SampleEvery is positive, samples cell-scope metrics
	// at the recorded cadence cycle (which the settled boundary may have
	// just passed). SampleEvery must be a multiple of the block length
	// when HaltEvery is set.
	Sample      func(at int64)
	SampleEvery int64

	// OnCancel, when non-nil, runs once when a cancellation poll fires —
	// the metrics drain-event emit — before the guard.OpCanceled error
	// is returned.
	OnCancel func(now int64)

	// NextGuard and NextSample are the absolute cycles the next guard
	// boundary and cell sample are due at. Zero (or a cycle at or before
	// the span start, for NextGuard) means "initialize from the span
	// start"; checkpoint restores set them to the saved cursors so the
	// resumed run replays the uninterrupted schedule.
	NextGuard  int64
	NextSample int64

	// Arms and Trips count watchdog observations and trips; drivers
	// register them as the "watchdog/arms" and "watchdog/trips" cell
	// counters.
	Arms, Trips int64
}

// Run advances the machine from cycle start until every thread halts or
// cycle end is reached, returning whether the machine halted. Cycle
// indices are absolute. The error paths are a watchdog trip or
// invariant violation at a guard boundary (both *guard.SimError), or —
// when ctx can be canceled — a guard.OpCanceled SimError within one
// block of the cancellation. A nil or background context skips
// cancellation entirely and never constrains Advance spans.
func (e *Engine) Run(ctx context.Context, start, end int64) (halted bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done() // nil for context.Background(): detached fast path

	// Specialize the boundary schedule once per span.
	guardOn := e.Watchdog != nil || len(e.Checkers) > 0
	if guardOn && e.NextGuard <= start {
		e.NextGuard = start + e.GuardEvery
	}
	sampleOn := e.SampleEvery > 0
	if sampleOn && e.NextSample <= start {
		e.NextSample = start + e.SampleEvery
	}

	// A machine whose Advance stops on the halt cycle reports an
	// already-halted machine before running anything; the lockstep grid
	// (HaltEvery > 0) instead always runs whole blocks and checks at
	// their boundaries.
	if e.Halted != nil && e.HaltEvery == 0 && e.Halted() {
		return true, nil
	}

	for now := start; now < end; {
		target := end
		if e.HaltEvery > 0 {
			// Whole blocks, even past end: lockstep rounding.
			target = now + e.HaltEvery
		} else {
			if guardOn && e.NextGuard < target {
				target = e.NextGuard
			}
			if sampleOn && e.NextSample < target {
				target = e.NextSample
			}
		}
		if done != nil {
			if next := now + BlockCycles; next < target {
				target = next
			}
		}

		now = e.Advance(now, target)

		// Boundary sequence. The sample precedes the halt check so the
		// final cell of a run that halts on a sample boundary is still
		// recorded; the halt check precedes the cancellation poll so a
		// finished machine is never reported canceled.
		if sampleOn && now >= e.NextSample {
			e.Sample(e.NextSample)
			e.NextSample += e.SampleEvery
		}
		if e.Halted != nil && e.Halted() {
			return true, nil
		}
		if done != nil {
			select {
			case <-done:
				if e.OnCancel != nil {
					e.OnCancel(now)
				}
				return false, guard.NewSimError(guard.OpCanceled, ctx.Err()).At(now)
			default:
			}
		}
		if guardOn && (now >= e.NextGuard || (e.GuardAtEnd && now >= end)) {
			e.NextGuard = now + e.GuardEvery
			if e.Watchdog != nil {
				e.Arms++
				if e.Watchdog.Observe(now, e.Progress()) {
					e.Trips++
					return false, e.trip(now)
				}
			}
			for _, c := range e.Checkers {
				if err := c.CheckInvariants(); err != nil {
					return false, err
				}
			}
		}
	}
	return false, nil
}

// trip builds the unified watchdog report: one Reason wording, the trip
// cycle and window from the engine, driver-specific machine state from
// Describe.
func (e *Engine) trip(now int64) error {
	stalled := e.Watchdog.Stalled(now)
	d := &guard.Diagnostic{
		Reason: fmt.Sprintf("watchdog: no useful instruction retired machine-wide in %d cycles", stalled),
		Cycle:  now,
		Window: e.Watchdog.Window(),
	}
	if e.Describe != nil {
		e.Describe(d)
	}
	return guard.NewSimError(guard.OpWatchdog,
		fmt.Errorf("livelock/deadlock: no useful instruction retired machine-wide in %d cycles", stalled)).
		At(now).WithDiag(d)
}

package fuzz

// Shrinking: minimize a failing spec while it keeps failing the oracle.
// Chunk removal over grammar items (seeded.Minimize), then scalar
// reductions (loop counts, thread count), then structural cleanup
// (trailing empty phases). Every candidate is validated and re-run
// through the full predicate, so a shrunk reproducer is guaranteed to
// still fail — and because specs are concrete item lists (not seeds),
// the minimized program replays byte-identically.

import (
	"context"

	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/seeded"
)

// defaultShrinkBudget bounds oracle evaluations per shrink. Each
// evaluation runs a full cell grid, so the budget is the knob trading
// shrink quality for time.
const defaultShrinkBudget = 150

// Shrink minimizes spec under the predicate "the oracle still reports a
// divergence or cell error on the same plan". Returns the smallest
// failing spec found (possibly the original). Only cancellation returns
// an error.
func Shrink(ctx context.Context, spec *Spec, quick bool, lim Limits, pool *experiments.Pool, budget int) (*Spec, error) {
	if budget <= 0 {
		budget = defaultShrinkBudget
	}
	evals := 0
	var lastErr error
	fails := func(s *Spec) bool {
		if lastErr != nil || evals >= budget || s.Validate() != nil {
			return false
		}
		evals++
		cells, results, err := RunProgram(ctx, s, quick, lim, pool)
		if err != nil {
			// Cancellation aborts the shrink; any other program-level
			// error (e.g. a mutation with nothing left to mutate after a
			// removal) just marks the candidate infeasible.
			if guard.IsCancellation(err) || ctx.Err() != nil {
				lastErr = err
			}
			return false
		}
		for _, r := range results {
			if r != nil && r.Err != "" {
				return true
			}
		}
		return len(Check(cells, results)) > 0
	}

	cur := spec.Clone()
	if !fails(cur) {
		// The caller's failure did not reproduce (or was canceled):
		// return the original unshrunk.
		return spec.Clone(), lastErr
	}

	// Pass 1: seeded.Minimize over the flat item list (chunk sizes n/2 … 1,
	// then single items until none goes).
	type coord struct{ phase, idx int }
	var coords []coord
	for p, items := range cur.Phases {
		for i := range items {
			coords = append(coords, coord{p, i})
		}
	}
	only := func(keep []coord) *Spec {
		c := cur.Clone()
		for p := range c.Phases {
			c.Phases[p] = nil
		}
		for _, k := range keep {
			c.Phases[k.phase] = append(c.Phases[k.phase], cur.Phases[k.phase][k.idx])
		}
		return c
	}
	cur = only(seeded.Minimize(coords, func(keep []coord) bool { return fails(only(keep)) }))
	if lastErr != nil {
		return cur, lastErr
	}

	// Pass 2: scalar reduction — shrink every N toward 1.
	for p := range cur.Phases {
		for i := range cur.Phases[p] {
			for cur.Phases[p][i].N > 1 {
				cand := cur.Clone()
				cand.Phases[p][i].N /= 2
				if !fails(cand) {
					break
				}
				cur = cand
			}
			if lastErr != nil {
				return cur, lastErr
			}
		}
	}

	// Pass 3: drop trailing empty phases (each costs a barrier).
	for len(cur.Phases) > 1 && len(cur.Phases[len(cur.Phases)-1]) == 0 {
		cand := cur.Clone()
		cand.Phases = cand.Phases[:len(cand.Phases)-1]
		if !fails(cand) {
			break
		}
		cur = cand
	}

	// Pass 4: fewer threads.
	for cur.Threads > 2 {
		cand := cur.Clone()
		cand.Threads--
		if !fails(cand) {
			break
		}
		cur = cand
	}
	return cur, lastErr
}

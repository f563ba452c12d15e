package guard

import (
	"repro/internal/seeded"
	"repro/internal/snapshot"
)

// Chaos is the fault injector: a deterministic latency perturber. The
// memory systems add Jitter() cycles to each miss or network latency
// they compute, shifting every timing decision in the run while leaving
// functional semantics untouched. Because the functional/timing split is
// sound, a perturbed run must produce byte-identical architectural
// results (final memory, register state) to an unperturbed one — which
// tests assert across seeds. A divergence means timing state has leaked
// into functional state: exactly the class of bug chaos mode exists to
// catch.
//
// The PRNG is a seeded.Stream (not math/rand) so its whole position is
// one word a checkpoint can carry, and each simulation cell can own a
// private, seeded stream with no shared state.
type Chaos struct {
	state seeded.Stream
	seed  int64
	skew  int64

	// Draws counts the perturbations drawn. Exported as a field (not a
	// method) so an observability registry can register its address; the
	// drivers surface it as the "chaos/draws" cell counter.
	Draws int64
}

// NewChaos returns a perturber seeded with seed whose Jitter values lie
// in [0, skew].
func NewChaos(seed, skew int64) *Chaos {
	if skew < 0 {
		skew = 0
	}
	return &Chaos{state: seeded.Stream(seed), seed: seed, skew: skew}
}

// Skew returns the maximum jitter in cycles.
func (c *Chaos) Skew() int64 { return c.skew }

// Jitter returns the next perturbation in [0, Skew] cycles. A nil Chaos
// returns 0, so call sites need no mode check.
func (c *Chaos) Jitter() int64 {
	if c == nil || c.skew == 0 {
		return 0
	}
	c.Draws++
	return int64(c.state.Next() % uint64(c.skew+1))
}

// Perturb returns lat plus jitter: the common "stretch this latency"
// call. Nil-safe.
func (c *Chaos) Perturb(lat int64) int64 { return lat + c.Jitter() }

// State visits the perturber for checkpointing: a presence byte, seed
// and skew as shape checks (they are configuration — the restorer
// rebuilds the Chaos from its config), then the stream position, so a
// forked run draws exactly the jitter an uninterrupted run would.
// Nil-safe: a nil Chaos is an absent one.
func (c *Chaos) State(cd snapshot.Codec) {
	if !cd.Present("chaos", c != nil) {
		return
	}
	cd.ShapeI64("chaos seed", c.seed)
	cd.ShapeI64("chaos skew", c.skew)
	cd.U64((*uint64)(&c.state))
	cd.I64(&c.Draws)
}

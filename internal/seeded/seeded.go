// Package seeded is the repository's one answer to "how is a seeded
// schedule represented, derived, printed and shrunk". The fault layers
// (faultfs under the journals, faultnet under the service's HTTP clients,
// cmd/torture over both) each own a FaultKind enum and the mechanics of
// delivering a fault; what they share lives here:
//
//   - Stream and Mix: the splitmix64 step and its finalizer, the only
//     PRNG the simulator, the fuzzer and the harnesses draw from, so a
//     seed means the same stream everywhere and on every Go release;
//   - Plan: an ordered list of "this kind fires when its counter reaches
//     N" events, printed as kind@N[:arg] (String) and checked for events
//     that could never fire (Layer.Check);
//   - Minimize: the one shrinker, for a failing plan or a failing
//     fuzz program alike.
//
// The package imports only the standard library, so every leaf (faultfs
// is imported by snapshot and metrics) can depend on it.
package seeded

import (
	"fmt"
	"slices"
	"strings"
)

// Stream is a splitmix64 generator. Its whole position is the one word: a
// checkpoint carries it as a uint64, and a consumer that wants a private
// stream converts a seed, Stream(seed).
type Stream uint64

// Next advances the stream and returns its next value.
func (s *Stream) Next() uint64 {
	*s += 0x9E3779B97F4A7C15
	return Mix(uint64(*s))
}

// Mix is the splitmix64 finalizer: a bijection on uint64 that decorrelates
// neighbouring inputs (consecutive seeds, cell indices, retry attempts).
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Kind is a layer's fault enum, named in text by its own String.
type Kind interface {
	comparable
	fmt.Stringer
}

// Event schedules one fault: Kind fires when the counter its layer keeps
// for it (writes, syncs, bytes written, requests) reaches
// At, counting from 1. Arg is the kind's parameter, if it has one: bytes a
// torn write keeps, milliseconds a delay lasts, bytes a truncated body
// lets through.
type Event[K Kind] struct {
	Kind    K
	At, Arg int64
}

func (e Event[K]) String() string {
	if e.Arg == 0 {
		return fmt.Sprintf("%v@%d", e.Kind, e.At)
	}
	return fmt.Sprintf("%v@%d:%d", e.Kind, e.At, e.Arg)
}

// Plan is a deterministic fault schedule, keyed by operation counts and
// never by wall-clock, so a run under it replays. It is pure data: derive
// one from a Stream, write one by hand, shrink one by dropping events. A
// nil plan injects nothing.
type Plan[K Kind] []Event[K]

// Lookup returns the event scheduled for kind, for a layer that counts
// each kind's operations separately.
func (p Plan[K]) Lookup(kind K) (Event[K], bool) {
	for _, e := range p {
		if e.Kind == kind {
			return e, true
		}
	}
	return Event[K]{}, false
}

// At returns the event that fires on ordinal n, for a layer whose kinds
// all count the same operations.
func (p Plan[K]) At(n int64) (Event[K], bool) {
	for _, e := range p {
		if e.At == n {
			return e, true
		}
	}
	return Event[K]{}, false
}

// String renders the plan as kind@N[:arg] events joined by commas; the
// empty plan is the empty string.
func (p Plan[K]) String() string {
	parts := make([]string, len(p))
	for i, e := range p {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Layer is one fault vocabulary as Check needs to know it.
type Layer[K Kind] struct {
	// OneCounter says every kind counts the same operations (a
	// transport's requests), so an ordinal delivers at most one fault.
	OneCounter bool
}

// Check reports a plan that cannot fire as written: a kind is one-shot, so
// its second event never fires, and on a shared counter the second event
// at an ordinal never does.
func (l Layer[K]) Check(p Plan[K]) error {
	for i, e := range p {
		for _, d := range p[:i] {
			if d.Kind == e.Kind {
				return fmt.Errorf("seeded: %v and %v: a kind fires once, the second never would", d, e)
			}
			if l.OneCounter && d.At == e.At {
				return fmt.Errorf("seeded: %v and %v share an ordinal of one counter: only the first would fire", d, e)
			}
		}
	}
	return nil
}

// Minimize shrinks items while fails keeps reporting true for what is
// left, and returns a 1-minimal result: removing any single remaining
// item makes fails false. It is delta debugging without the complement
// step: remove chunks of n/2, n/4, … 2 items, then single items until a
// whole pass removes nothing. Order is preserved. fails is only called
// with sublists of items and is assumed true for items itself; one that
// turns permanently false (an exhausted budget, a cancelled context) ends
// the search within a pass.
func Minimize[T any](items []T, fails func([]T) bool) []T {
	cur := items
	sweep := func(chunk int) (removed bool) {
		for start := 0; start < len(cur); {
			end := min(start+chunk, len(cur))
			if cand := slices.Delete(slices.Clone(cur), start, end); fails(cand) {
				cur, removed = cand, true // the next chunk has moved to start
			} else {
				start = end
			}
		}
		return removed
	}
	for chunk := len(cur) / 2; chunk > 1; chunk /= 2 {
		sweep(chunk)
	}
	for sweep(1) {
	}
	return cur
}

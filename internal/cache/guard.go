package cache

import (
	"fmt"

	"repro/internal/guard"
)

// This file is the hierarchy's side of the simulation-hardening layer:
// structural invariant checking and outstanding-miss reporting for
// diagnostics.

// checkPlacement verifies a direct-mapped cache's tag array: every valid
// tag must map to the set it occupies. A violation means a fill or
// invalidation corrupted the placement function.
func checkPlacement(name string, c *Cache) error {
	for s, v := range c.valid {
		if v && c.tags[s]&(c.sets-1) != uint32(s) {
			return fmt.Errorf("%s: set %d holds line %#x, which maps to set %d",
				name, s, c.tags[s], c.tags[s]&(c.sets-1))
		}
	}
	return nil
}

// CheckInvariants verifies the hierarchy's structural sanity:
//
//   - every valid tag in L1I/L1D/L2 sits in the set it maps to;
//   - demand misses never exceed the configured MSHR count;
//   - the miss-register file is strictly ascending by line and its cached
//     earliest fill is the minimum over its entries;
//   - the prefetch-buffer occupancy count matches the file's prefetches;
//   - no line is simultaneously pending (in a miss register) and
//     resident in the data cache.
//
// Violations come back as *guard.SimError.
func (h *Hierarchy) CheckInvariants() error {
	fail := func(err error) error {
		return guard.NewSimError("cache.invariant", err)
	}
	for _, c := range []struct {
		name string
		c    *Cache
	}{{"L1I", h.L1I}, {"L1D", h.L1D}, {"L2", h.L2}} {
		if err := checkPlacement(c.name, c.c); err != nil {
			return fail(err)
		}
	}
	if err := h.pending.check(); err != nil {
		return fail(err)
	}
	prefetches := 0
	for _, pf := range h.pending.e {
		if pf.prefetch {
			prefetches++
		}
		if h.L1D.Present(pf.line << uint32(h.L1D.lineShift)) {
			return fail(fmt.Errorf("line %#x both pending and resident in L1D", pf.line))
		}
	}
	if prefetches != h.prefetchOutstanding {
		return fail(fmt.Errorf("prefetch occupancy count %d, but %d prefetches pending",
			h.prefetchOutstanding, prefetches))
	}
	if demand := len(h.pending.e) - prefetches; demand > h.P.MSHRs {
		return fail(fmt.Errorf("%d demand misses outstanding with %d MSHRs", demand, h.P.MSHRs))
	}
	if h.prefetchOutstanding > prefetchBufEntries {
		return fail(fmt.Errorf("%d prefetches outstanding with %d buffer entries",
			h.prefetchOutstanding, prefetchBufEntries))
	}
	return nil
}

// OutstandingMisses reports the occupied miss registers, in ascending
// line order, for watchdog diagnostics.
func (h *Hierarchy) OutstandingMisses() []guard.MissState {
	out := make([]guard.MissState, 0, len(h.pending.e))
	for _, pf := range h.pending.e {
		out = append(out, guard.MissState{
			Line:   pf.line,
			Addr:   pf.line << uint32(h.L1D.lineShift),
			FillAt: pf.fill,
		})
	}
	return out
}

var (
	_ guard.InvariantChecker = (*Hierarchy)(nil)
	_ guard.MissReporter     = (*Hierarchy)(nil)
)

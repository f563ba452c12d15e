package cache

import (
	"repro/internal/snapshot"
)

// This file is the workstation memory hierarchy's state walk for
// checkpoint/restore, and provides the timing-state Hash built on the
// same canonical byte encoding. Restore targets a hierarchy freshly
// built from the same Params (geometry is shape-checked); the chaos
// perturbation stream, when enabled, resumes at its recorded position
// so a forked run draws exactly the jitter an uninterrupted run would.

// Section tags for the cache layer.
const (
	sectionHierarchy = 0x43414348 // "CACH"
	sectionCache     = 0x43414331 // "CAC1"
	sectionTLB       = 0x544c4231 // "TLB1"
	sectionPrefetch  = 0x50524631 // "PRF1"
)

// State visits a direct-mapped cache's tag arrays; geometry must match.
// Exported because the coherence fabric walks its per-node caches
// through the same encoding.
func (c *Cache) State(cd snapshot.Codec) {
	cd.Section(sectionCache)
	cd.ShapeU32("cache sets", c.sets)
	cd.U32s(c.tags)
	cd.Bools(c.valid)
	cd.Bools(c.dirty)
}

func (t *TLB) state(c snapshot.Codec) {
	c.Section(sectionTLB)
	c.ShapeU32("TLB mask", t.mask)
	c.U32s(t.tags)
	c.Bools(t.ok)
}

func (pf *prefetcher) state(c snapshot.Codec) {
	c.Section(sectionPrefetch)
	c.ShapeU8("prefetch mode", uint8(pf.mode))
	for i := range pf.rpt {
		e := &pf.rpt[i]
		c.U32(&e.lastLine)
		c.I32(&e.stride)
		c.I8(&e.confidence)
	}
	// Only the keys are state: a line is in the map exactly when marked.
	snapshot.Map(c, pf.issued, func(marked *bool) { *marked = true })
}

// SaveState serializes the hierarchy into w.
func (h *Hierarchy) SaveState(w *snapshot.Writer) { h.State(snapshot.Saving(w)) }

// RestoreState overwrites the hierarchy's state from a snapshot. The
// hierarchy must have been built from the same Params (including the
// same chaos configuration, whose stream position is restored).
func (h *Hierarchy) RestoreState(r *snapshot.Reader) { h.State(snapshot.Restoring(r)) }

// State visits the hierarchy: cache and TLB arrays, the prefetcher, the
// outstanding-miss registers and TLB holds (in ascending key order, so
// identical state always produces identical bytes), the port/bank
// occupancy frontiers, the chaos stream position, and Stats. Geometry
// fields are shape checks.
func (h *Hierarchy) State(c snapshot.Codec) {
	c.Section(sectionHierarchy)
	c.ShapeI64("line size", int64(h.P.LineSize))
	c.ShapeI64("memory banks", int64(h.P.NumBanks))

	h.L1I.State(c)
	h.L1D.State(c)
	h.L2.State(c)
	h.TLB.state(c)
	h.prefetch.state(c)

	snapshot.Slice(c, &h.pending.e, func(pf *pendingFill) {
		c.U32(&pf.line)
		c.I64(&pf.fill)
		c.Bool(&pf.prefetch)
	})
	if !c.Saving() {
		h.pending.rebuild()
	}
	c.Int(&h.prefetchOutstanding)

	snapshot.Map(c, h.tlbHold, c.I64)

	c.I64(&h.l1dFree)
	c.I64(&h.l2Free)
	c.I64s(h.bankFree)

	h.P.Chaos.State(c)

	h.Stats.state(c)
}

func (s *Stats) state(c snapshot.Codec) {
	c.I64(&s.DataAccesses)
	c.I64s(s.DataByClass[:])
	c.I64(&s.InstFetches)
	c.I64(&s.InstMisses)
	c.I64(&s.Writebacks)
	c.I64(&s.PrefetchesIssued)
	c.I64(&s.PrefetchesUseful)
}

// Hash returns a deterministic digest of the hierarchy's complete
// timing state — cache and TLB tags, miss registers, prefetcher, port
// frontiers, chaos position, stats. It is the serialized snapshot's
// StateHash, so two hierarchies hash equal exactly when their
// checkpoints would be byte-identical. Used by the differential
// fuzzer's restore oracle, guarded-run diagnostics, and the
// snapshot-equivalence tests.
func (h *Hierarchy) Hash() uint64 {
	w := snapshot.NewWriter()
	h.SaveState(w)
	return snapshot.StateHash(w.Bytes())
}

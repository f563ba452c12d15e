package cache

import (
	"sort"

	"repro/internal/snapshot"
)

// This file serializes the workstation memory hierarchy for
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

// SaveState serializes a direct-mapped cache's tag arrays. Exported
// because the coherence fabric serializes its per-node caches through
// the same encoding.
func (c *Cache) SaveState(w *snapshot.Writer) {
	w.Section(sectionCache)
	w.U32(c.sets)
	for _, v := range c.tags {
		w.U32(v)
	}
	for _, v := range c.valid {
		w.Bool(v)
	}
	for _, v := range c.dirty {
		w.Bool(v)
	}
}

// RestoreState overwrites the cache arrays; geometry must match.
func (c *Cache) RestoreState(r *snapshot.Reader) {
	r.Section(sectionCache)
	r.Expect("cache sets", int64(r.U32()), int64(c.sets))
	for i := range c.tags {
		c.tags[i] = r.U32()
	}
	for i := range c.valid {
		c.valid[i] = r.Bool()
	}
	for i := range c.dirty {
		c.dirty[i] = r.Bool()
	}
}

func (t *TLB) saveState(w *snapshot.Writer) {
	w.Section(sectionTLB)
	w.U32(t.mask)
	for _, v := range t.tags {
		w.U32(v)
	}
	for _, v := range t.ok {
		w.Bool(v)
	}
}

func (t *TLB) restoreState(r *snapshot.Reader) {
	r.Section(sectionTLB)
	r.Expect("TLB mask", int64(r.U32()), int64(t.mask))
	for i := range t.tags {
		t.tags[i] = r.U32()
	}
	for i := range t.ok {
		t.ok[i] = r.Bool()
	}
}

func (pf *prefetcher) saveState(w *snapshot.Writer) {
	w.Section(sectionPrefetch)
	w.U8(uint8(pf.mode))
	for _, e := range pf.rpt {
		w.U32(e.lastLine)
		w.U32(uint32(e.stride))
		w.U8(uint8(e.confidence))
	}
	lines := make([]uint32, 0, len(pf.issued))
	for line := range pf.issued {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U32(uint32(len(lines)))
	for _, line := range lines {
		w.U32(line)
	}
}

func (pf *prefetcher) restoreState(r *snapshot.Reader) {
	r.Section(sectionPrefetch)
	r.Expect("prefetch mode", int64(r.U8()), int64(pf.mode))
	for i := range pf.rpt {
		pf.rpt[i].lastLine = r.U32()
		pf.rpt[i].stride = int32(r.U32())
		pf.rpt[i].confidence = int8(r.U8())
	}
	pf.issued = make(map[uint32]bool)
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		pf.issued[r.U32()] = true
	}
}

// SaveState serializes the hierarchy: cache and TLB arrays, the
// outstanding-miss registers and TLB holds (in ascending key order, so
// identical state always produces identical bytes), the prefetcher,
// the port/bank occupancy frontiers, the chaos stream position, and
// Stats. Geometry fields are written as shape checks.
func (h *Hierarchy) SaveState(w *snapshot.Writer) {
	w.Section(sectionHierarchy)
	w.Int(h.P.LineSize)
	w.Int(h.P.NumBanks)

	h.L1I.SaveState(w)
	h.L1D.SaveState(w)
	h.L2.SaveState(w)
	h.TLB.saveState(w)
	h.prefetch.saveState(w)

	w.U32(uint32(len(h.pending.e)))
	for _, pf := range h.pending.e {
		w.U32(pf.line)
		w.I64(pf.fill)
		w.Bool(pf.prefetch)
	}
	w.Int(h.prefetchOutstanding)

	pages := make([]uint32, 0, len(h.tlbHold))
	for page := range h.tlbHold {
		pages = append(pages, page)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	w.U32(uint32(len(pages)))
	for _, page := range pages {
		w.U32(page)
		w.I64(h.tlbHold[page])
	}

	w.I64(h.l1dFree)
	w.I64(h.l2Free)
	for _, v := range h.bankFree {
		w.I64(v)
	}

	w.Bool(h.P.Chaos != nil)
	if h.P.Chaos != nil {
		w.I64(h.P.Chaos.Seed())
		w.I64(h.P.Chaos.Skew())
		state, draws := h.P.Chaos.SnapshotState()
		w.U64(state)
		w.I64(draws)
	}

	h.Stats.saveState(w)
}

// RestoreState overwrites the hierarchy's state from a snapshot. The
// hierarchy must have been built from the same Params (including the
// same chaos configuration, whose stream position is restored).
func (h *Hierarchy) RestoreState(r *snapshot.Reader) {
	r.Section(sectionHierarchy)
	r.Expect("line size", int64(r.Int()), int64(h.P.LineSize))
	r.Expect("memory banks", int64(r.Int()), int64(h.P.NumBanks))

	h.L1I.RestoreState(r)
	h.L1D.RestoreState(r)
	h.L2.RestoreState(r)
	h.TLB.restoreState(r)
	h.prefetch.restoreState(r)

	// Entries were written in ascending line order; inserting each at its
	// sorted position rebuilds the file (and its cached earliest fill)
	// without trusting that.
	h.pending.e = h.pending.e[:0]
	h.pending.earliest = noFill
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		pf := pendingFill{line: r.U32(), fill: r.I64(), prefetch: r.Bool()}
		if slot, dup := h.pending.find(pf.line); !dup {
			h.pending.insertAt(slot, pf)
		}
	}
	h.prefetchOutstanding = r.Int()

	h.tlbHold = make(map[uint32]int64)
	n = r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		page := r.U32()
		h.tlbHold[page] = r.I64()
	}

	h.l1dFree = r.I64()
	h.l2Free = r.I64()
	for i := range h.bankFree {
		h.bankFree[i] = r.I64()
	}

	hadChaos := r.Bool()
	if r.Err() == nil {
		inSnap, inMachine := int64(0), int64(0)
		if hadChaos {
			inSnap = 1
		}
		if h.P.Chaos != nil {
			inMachine = 1
		}
		r.Expect("chaos presence", inSnap, inMachine)
	}
	if hadChaos && h.P.Chaos != nil {
		r.Expect("chaos seed", r.I64(), h.P.Chaos.Seed())
		r.Expect("chaos skew", r.I64(), h.P.Chaos.Skew())
		state := r.U64()
		draws := r.I64()
		if r.Err() == nil {
			h.P.Chaos.RestoreSnapshotState(state, draws)
		}
	}

	h.Stats.restoreState(r)
}

func (s *Stats) saveState(w *snapshot.Writer) {
	w.I64(s.DataAccesses)
	for _, v := range s.DataByClass {
		w.I64(v)
	}
	w.I64(s.InstFetches)
	w.I64(s.InstMisses)
	w.I64(s.Writebacks)
	w.I64(s.PrefetchesIssued)
	w.I64(s.PrefetchesUseful)
}

func (s *Stats) restoreState(r *snapshot.Reader) {
	s.DataAccesses = r.I64()
	for i := range s.DataByClass {
		s.DataByClass[i] = r.I64()
	}
	s.InstFetches = r.I64()
	s.InstMisses = r.I64()
	s.Writebacks = r.I64()
	s.PrefetchesIssued = r.I64()
	s.PrefetchesUseful = r.I64()
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

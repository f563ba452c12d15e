package coherence

import (
	"repro/internal/snapshot"
)

// This file is the multiprocessor memory system's state walk for
// checkpoint/restore, and provides the directory/timing Hash built on
// the same canonical encoding. Restore targets a fabric freshly built
// from the same Params and node count; the latency PRNG resumes by
// replaying its recorded raw-draw count from the same seed, and the
// chaos stream (when enabled) restores its position directly.

// Section tags for the coherence layer.
const (
	sectionFabric = 0x46414231 // "FAB1"
	sectionNode   = 0x4e4f4431 // "NOD1"
)

func (n *Node) state(c snapshot.Codec) {
	c.Section(sectionNode)
	c.ShapeI64("node id", int64(n.id))
	n.cache.State(c)
	// pending is visited in request order — the slice order carries
	// protocol meaning (fill service and expiry scan it in order).
	snapshot.Slice(c, &n.pending, func(pf *pendingFill) {
		c.U32(&pf.line)
		c.Bool(&pf.exclusive)
		c.I64(&pf.fill)
	})
	c.I64(&n.Stats.Accesses)
	c.I64s(n.Stats.ByClass[:])
	c.I64(&n.Stats.Invalidations)
	c.I64(&n.Stats.Upgrades)
	c.I64(&n.Stats.Deferred)
}

// SaveState serializes the fabric into w.
func (f *Fabric) SaveState(w *snapshot.Writer) { f.State(snapshot.Saving(w)) }

// RestoreState overwrites the fabric's state from a snapshot. The
// fabric must have been built with the same Params and node count, and
// must not have drawn from its latency PRNG yet.
func (f *Fabric) RestoreState(r *snapshot.Reader) { f.State(snapshot.Restoring(r)) }

// State visits the fabric: every node (cache, miss registers, stats),
// the directory radix pages in ascending page order, the latency PRNG's
// draw count, and the chaos stream position. The page-lookup memos and
// the entries' counts of writes in flight are derived state: never
// visited, dropped on restore, the counts rebuilt from the miss registers.
func (f *Fabric) State(c snapshot.Codec) {
	c.Section(sectionFabric)
	c.ShapeI64("node count", int64(len(f.nodes)))
	c.ShapeI64("line size", int64(f.P.LineSize))
	c.ShapeI64("cache size", int64(f.P.CacheSize))
	c.ShapeI64("latency seed", f.P.Seed)

	for _, n := range f.nodes {
		n.state(c)
	}

	if !c.Saving() {
		f.lastPage = nil
		clear(f.pageCache[:])
	}
	snapshot.Map(c, f.dir, func(pg **dirPage) {
		if *pg == nil {
			*pg = new(dirPage)
		}
		for i := range *pg {
			e := &(*pg)[i]
			c.I32(&e.owner)
			c.U64(&e.sharers)
		}
	})
	if !c.Saving() {
		// The restored pages are fresh: count the miss registers'
		// exclusive entries into them.
		for _, n := range f.nodes {
			for _, pf := range n.pending {
				if !pf.exclusive {
					continue
				}
				if e := f.peekEntry(pf.line); e != nil {
					e.writes++
				}
			}
		}
	}

	f.rngSrc.State(c)
	f.P.Chaos.State(c)
}

// Hash returns a deterministic digest of the fabric's complete state —
// directory pages, node caches, miss registers, PRNG position, stats.
// It is the serialized snapshot's StateHash, so two fabrics hash equal
// exactly when their checkpoints would be byte-identical.
func (f *Fabric) Hash() uint64 {
	w := snapshot.NewWriter()
	f.SaveState(w)
	return snapshot.StateHash(w.Bytes())
}

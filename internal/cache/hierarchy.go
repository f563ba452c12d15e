package cache

import (
	"fmt"
	"math/rand"

	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/metrics"
)

// Stats counts hierarchy events by miss class plus fetch traffic.
type Stats struct {
	DataAccesses int64
	DataByClass  [memsys.NumMissClasses]int64
	InstFetches  int64
	InstMisses   int64
	Writebacks   int64

	PrefetchesIssued int64
	PrefetchesUseful int64
}

// Hierarchy is the workstation memory system: split 64 KB primary caches,
// a unified 1 MB secondary cache, four interleaved memory banks, and a
// data TLB. It implements memsys.System.
type Hierarchy struct {
	P Params

	L1I *Cache
	L1D *Cache
	L2  *Cache
	TLB *TLB

	// Lockup-free machinery: the outstanding L1D misses and prefetches
	// (mshr.go).
	pending mshrFile

	// Hardware prefetcher (PrefetchOff by default).
	prefetch            *prefetcher
	prefetchOutstanding int

	// tlbHold protects just-refilled TLB entries until their faulting
	// access replays: without it, two contexts whose pages conflict in
	// the direct-mapped TLB can evict each other's refills forever.
	tlbHold map[uint32]int64 // page -> hold expiry

	// Port and bank occupancy frontiers.
	l1dFree  int64
	l2Free   int64
	bankFree []int64

	// obsSink, when non-nil, receives miss-start/miss-fill events. Every
	// emission happens inside an access (or a fixed-cycle drain), so the
	// stream is identical whether the core fast-forwards or steps.
	obsSink *metrics.Sink

	Stats Stats
}

// AttachMetrics registers the hierarchy's counters with the owning
// processor's registry and installs its event sink. All counters here are
// mutated only by this processor's own accesses, so they are safe to
// sample at per-processor sample points. Nil is a no-op.
func (h *Hierarchy) AttachMetrics(m *metrics.ProcMetrics) {
	if m == nil {
		return
	}
	h.obsSink = m.Sink
	reg := m.Reg
	reg.Register("cache/data-accesses", &h.Stats.DataAccesses)
	for c := 0; c < memsys.NumMissClasses; c++ {
		reg.Register("cache/data/"+memsys.MissClass(c).String(), &h.Stats.DataByClass[c])
	}
	reg.Register("cache/inst-fetches", &h.Stats.InstFetches)
	reg.Register("cache/inst-misses", &h.Stats.InstMisses)
	reg.Register("cache/writebacks", &h.Stats.Writebacks)
	reg.Register("cache/prefetches-issued", &h.Stats.PrefetchesIssued)
	reg.Register("cache/prefetches-useful", &h.Stats.PrefetchesUseful)
}

// NewHierarchy builds a hierarchy with parameters p.
func NewHierarchy(p Params) (*Hierarchy, error) { return NewHierarchyReusing(p, nil) }

// NewHierarchyReusing is NewHierarchy for a restore target: it takes the
// primary and secondary caches of old, a hierarchy nothing uses any
// more, where their geometry matches p, instead of allocating them. Their
// tag, valid and dirty arrays still hold old's lines, so the hierarchy
// is fit to run only once a restore walk (State), which overwrites each
// of those arrays in full, has succeeded. A nil old allocates every
// cache, as NewHierarchy does.
func NewHierarchyReusing(p Params, old *Hierarchy) (*Hierarchy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var l1i, l1d, l2 *Cache
	if old != nil {
		l1i, l1d, l2 = old.L1I, old.L1D, old.L2
	}
	return &Hierarchy{
		P:        p,
		L1I:      l1i.reuse(p.L1ISize, p.LineSize),
		L1D:      l1d.reuse(p.L1DSize, p.LineSize),
		L2:       l2.reuse(p.L2Size, p.LineSize),
		TLB:      NewTLB(p.TLBEntries),
		pending:  newMSHRFile(p.MSHRs + prefetchBufEntries),
		tlbHold:  make(map[uint32]int64),
		bankFree: make([]int64, p.NumBanks),
		prefetch: newPrefetcher(p.Prefetch),
	}, nil
}

// MustNewHierarchy is NewHierarchy for default-style configs known valid.
func MustNewHierarchy(p Params) *Hierarchy {
	h, err := NewHierarchy(p)
	if err != nil {
		panic(fmt.Errorf("cache: MustNewHierarchy: %w", err))
	}
	return h
}

// fillHoldCycles is how long a completed fill is held in its miss register
// waiting for the faulting access to replay before it is installed
// unilaterally. Holding the data in the MSHR guarantees forward progress:
// the replayed reference is served from the fill buffer even if a
// conflicting fill would otherwise have evicted the line first (without
// this, two contexts whose lines share a direct-mapped set can evict each
// other's fills forever).
const fillHoldCycles = 256

// DrainFills installs every outstanding miss whose fill time has passed.
// The OS model calls this at slice boundaries so interference displacement
// sees settled state; the access path holds fresh fills for their faulting
// access instead (see fillHoldCycles).
func (h *Hierarchy) DrainFills(now int64) {
	h.installReady(now, 0)
}

// installReady installs every pending fill that is ready at now (shifted
// by grace), in ascending line order — the file's own order. When nothing
// is due, which is the case on nearly every access, it is one compare
// against the cached earliest fill. Otherwise one pass installs the due
// entries and compacts the rest in place; an install touches the caches
// and port frontiers but never the file, so removing as it goes is safe.
func (h *Hierarchy) installReady(now, grace int64) {
	f := &h.pending
	if f.earliest > now-grace {
		return
	}
	keep := f.e[:0]
	earliest := int64(noFill)
	for _, pf := range f.e {
		if pf.fill+grace > now {
			keep = append(keep, pf)
			if pf.fill < earliest {
				earliest = pf.fill
			}
			continue
		}
		h.retire(pf, now)
	}
	f.e, f.earliest = keep, earliest
}

// retire completes a fill whose entry has left (or is leaving) the file:
// it releases a prefetch's buffer slot, installs the line in the primary
// data cache and reports the fill.
func (h *Hierarchy) retire(pf pendingFill, now int64) {
	if pf.prefetch {
		h.prefetchOutstanding--
	}
	h.installL1D(pf.line)
	if h.obsSink != nil {
		h.obsSink.Emit(metrics.Event{
			Cycle: now, Kind: metrics.KindMissFill, Ctx: -1,
			Addr: pf.line << uint32(h.L1D.lineShift), Arg: pf.fill,
		})
	}
}

// expireFills installs fills whose faulting access never returned (the OS
// switched the thread away mid-miss), freeing their miss registers.
func (h *Hierarchy) expireFills(now int64) {
	h.installReady(now, fillHoldCycles)
}

func (h *Hierarchy) installL1D(line uint32) {
	addr := line << uint32(h.L1D.lineShift)
	if victim, vd, ok := h.L1D.Fill(addr, false); ok && vd {
		h.writeback(victim)
	}
}

// writeback charges a dirty-victim writeback to the L2 port (and, if the
// line misses in L2, to its memory bank). Writebacks are buffered, so they
// add occupancy but no latency to the access that evicted them.
func (h *Hierarchy) writeback(line uint32) {
	h.Stats.Writebacks++
	h.l2Free += int64(h.P.L2WriteOcc)
	addr := line << uint32(h.L1D.lineShift)
	if !h.L2.Present(addr) {
		b := int(line) % h.P.NumBanks
		h.bankFree[b] += int64(h.P.BankOcc)
	} else {
		h.L2.MarkDirty(addr)
	}
}

// l2Access charges a miss's trip to the secondary cache and, on a
// secondary miss, to the interleaved memory; it returns the fill time.
func (h *Hierarchy) l2Access(addr uint32, now int64) (fillAt int64, class memsys.MissClass) {
	start := now
	if h.l2Free > start {
		start = h.l2Free
	}
	h.l2Free = start + int64(h.P.L2ReadOcc)
	if h.L2.Present(addr) {
		return start + h.P.Chaos.Perturb(int64(h.P.L2HitLatency)), memsys.HitL2
	}
	line := h.L2.Line(addr)
	b := int(line) % h.P.NumBanks
	mstart := start
	if h.bankFree[b] > mstart {
		mstart = h.bankFree[b]
	}
	h.bankFree[b] = mstart + int64(h.P.BankOcc)
	fillAt = mstart + h.P.Chaos.Perturb(int64(h.P.MemLatency))
	// Install in L2; a dirty L2 victim goes back to its bank.
	if victim, vd, ok := h.L2.Fill(addr, false); ok && vd {
		vb := int(victim) % h.P.NumBanks
		h.bankFree[vb] += int64(h.P.BankOcc)
	}
	h.l2Free += int64(h.P.L2FillOcc)
	return fillAt, memsys.Memory
}

// AccessData implements memsys.DataMemory for loads, stores and atomics.
func (h *Hierarchy) AccessData(addr uint32, write bool, pc uint32, now int64) memsys.DataResult {
	h.Stats.DataAccesses++
	h.expireFills(now)

	// Address translation first: a TLB miss is a long-latency event of
	// its own (charged to the Data Cache/TLB category). The entry is
	// installed immediately and protected by a hold buffer so the replay
	// translates even if a conflicting refill displaced the entry.
	if !h.TLB.Lookup(addr) {
		page := addr >> mem.PageShift
		if exp, ok := h.tlbHold[page]; !ok || now > exp {
			if len(h.tlbHold) > 4*h.P.TLBEntries {
				for p, e := range h.tlbHold {
					if now > e {
						delete(h.tlbHold, p)
					}
				}
			}
			refill := h.P.Chaos.Perturb(int64(h.P.TLBPenalty))
			h.tlbHold[page] = now + refill + fillHoldCycles
			h.Stats.DataByClass[memsys.TLBMiss]++
			if h.obsSink != nil {
				h.obsSink.Emit(metrics.Event{
					Cycle: now, Kind: metrics.KindMissStart, Ctx: -1,
					Class: memsys.TLBMiss.String(), Addr: addr, PC: pc, Arg: now + refill,
				})
			}
			return memsys.DataResult{FillAt: now + refill, Class: memsys.TLBMiss}
		}
		// Refill in hold: the Lookup above reinstalled the entry; the
		// access proceeds as translated.
	}

	line := h.L1D.Line(addr)
	slot, outstanding := h.pending.find(line)
	if outstanding && h.pending.e[slot].fill <= now {
		// The replayed (or a merging) access arrives after the fill:
		// serve it from the miss register and install the line, which
		// makes the access below a primary hit.
		pf := h.pending.e[slot]
		h.pending.removeAt(slot)
		outstanding = false
		h.retire(pf, now)
		h.notePrefetchUse(line)
	}

	if h.L1D.Present(addr) {
		occ := h.P.L1DReadOcc
		if write {
			occ = h.P.L1DWriteOcc
			h.L1D.MarkDirty(addr)
		}
		start := now
		if h.l1dFree > start {
			start = h.l1dFree
		}
		h.l1dFree = start + int64(occ)
		h.Stats.DataByClass[memsys.HitL1]++
		return memsys.DataResult{
			Hit:     true,
			ReadyAt: start + int64(h.P.LoadUseCycles),
			Class:   memsys.HitL1,
		}
	}

	if outstanding {
		// Merge into the outstanding miss for this line; a merge with an
		// in-flight prefetch means the prefetch was useful (it started
		// the fetch early).
		h.notePrefetchUse(line)
		return memsys.DataResult{FillAt: h.pending.e[slot].fill, Class: memsys.MSHRFull}
	}
	if len(h.pending.e)-h.prefetchOutstanding >= h.P.MSHRs {
		// All demand miss registers busy: retry when the earliest fill
		// (demand or prefetch) frees its entry.
		h.Stats.DataByClass[memsys.MSHRFull]++
		return memsys.DataResult{FillAt: h.pending.earliest, Class: memsys.MSHRFull}
	}

	// Write-allocate: stores take the same miss path; the replayed store
	// marks the filled line dirty.
	fillAt, class := h.l2Access(addr, now)
	fillAt += int64(h.P.L1DFillOcc)
	h.pending.insertAt(slot, pendingFill{line: line, fill: fillAt})
	h.Stats.DataByClass[class]++
	h.maybePrefetch(line, pc, now)
	if h.obsSink != nil {
		h.obsSink.Emit(metrics.Event{
			Cycle: now, Kind: metrics.KindMissStart, Ctx: -1,
			Class: class.String(), Addr: addr, PC: pc, Arg: fillAt,
		})
	}
	return memsys.DataResult{FillAt: fillAt, Class: class}
}

// FetchInst implements memsys.InstMemory. The I-cache is blocking: a miss
// returns the fill time and the caller stalls the processor until then.
// The I-cache fetches two lines per miss (Table 1), which is modeled by
// filling the next sequential line for free. A hit is the two
// memsys.CountedInstFetch methods and nothing else, which is what lets the
// core count a stalled instruction's re-fetches instead of making them.
func (h *Hierarchy) FetchInst(addr uint32, now int64) (readyAt int64, miss bool) {
	h.CountInstFetches(1)
	if h.InstFetchHits(addr) {
		return now, false
	}
	h.Stats.InstMisses++
	fillAt, _ := h.l2Access(addr, now)
	fillAt += int64(h.P.L1IFillOcc)
	h.L1I.Fill(addr, false)
	next := addr + uint32(h.P.LineSize)
	h.L1I.Fill(next, false)
	if !h.L2.Present(next) {
		// The prefetched line's L2/memory traffic is overlapped with the
		// demand line; charge occupancy only.
		h.l2Access(next, now)
	}
	return fillAt, true
}

// InstFetchHits implements memsys.CountedInstFetch: a fetch hits when its
// line is resident in the primary instruction cache, which only a FetchInst
// miss or SchedulerInterference changes.
func (h *Hierarchy) InstFetchHits(addr uint32) bool { return h.L1I.Present(addr) }

// CountInstFetches implements memsys.CountedInstFetch: the whole effect of
// n fetches that hit.
func (h *Hierarchy) CountInstFetches(n int64) { h.Stats.InstFetches += n }

// SchedulerInterference invalidates iLines instruction-cache lines, dLines
// data-cache lines and tlbEntries TLB slots at a scheduler invocation
// (paper Table 6 / Torrellas' IRIX measurements).
func (h *Hierarchy) SchedulerInterference(iLines, dLines, tlbEntries int, rng *rand.Rand) {
	h.L1I.DisplaceRandom(iLines, rng)
	h.L1D.DisplaceRandom(dLines, rng)
	h.TLB.DisplaceRandom(tlbEntries, rng)
}

var _ memsys.System = (*Hierarchy)(nil)

var _ memsys.CountedInstFetch = (*Hierarchy)(nil)

package cache

// Hardware prefetching: the paper's introduction names prefetching as the
// other major software-transparent latency-tolerance technique ([17],
// Mowry's scheme). This file adds two classic hardware prefetchers to the
// workstation hierarchy so the comparison the paper alludes to can
// actually be run (see experiments.PrefetchComparison):
//
//   - next-line (one-block-lookahead): on a demand miss, also fetch the
//     sequentially next line;
//   - stride: a reference-prediction table keyed by page detects constant
//     strides in the miss stream and runs one line ahead of it.
//
// Prefetches ride a dedicated buffer (they do not occupy the demand
// MSHRs) but pay full secondary-cache and memory-bank occupancy: the
// bandwidth they consume is real.

// PrefetchMode selects the hardware prefetcher.
type PrefetchMode uint8

// Prefetch modes.
const (
	PrefetchOff PrefetchMode = iota
	PrefetchNextLine
	PrefetchStride
)

// String returns the mode name.
func (m PrefetchMode) String() string {
	switch m {
	case PrefetchOff:
		return "off"
	case PrefetchNextLine:
		return "next-line"
	case PrefetchStride:
		return "stride"
	}
	return "prefetch(?)"
}

// prefetchBufEntries bounds outstanding prefetches (a small dedicated
// buffer beside the demand MSHRs).
const prefetchBufEntries = 8

// strideEntry is one reference-prediction-table row.
type strideEntry struct {
	lastLine   uint32
	stride     int32
	confidence int8
}

// prefetcher holds the hierarchy's prefetch state.
type prefetcher struct {
	mode PrefetchMode
	// rpt is the stride reference-prediction table, direct-mapped by
	// page number.
	rpt [64]strideEntry
	// issued marks lines brought in by prefetch and not yet used, for
	// usefulness accounting.
	issued map[uint32]bool
}

func newPrefetcher(mode PrefetchMode) *prefetcher {
	return &prefetcher{mode: mode, issued: make(map[uint32]bool)}
}

// predict returns the line to prefetch after a demand miss to line by the
// instruction at pc, or (0, false).
func (pf *prefetcher) predict(line, pc uint32) (uint32, bool) {
	switch pf.mode {
	case PrefetchNextLine:
		return line + 1, true
	case PrefetchStride:
		// Reference prediction table indexed by the load/store's PC
		// (Chen & Baer): each memory instruction is its own stream.
		slot := &pf.rpt[(pc>>2)&63]
		stride := int32(line) - int32(slot.lastLine)
		if stride != 0 && stride == slot.stride {
			if slot.confidence < 4 {
				slot.confidence++
			}
		} else {
			slot.stride = stride
			slot.confidence = 0
		}
		slot.lastLine = line
		if slot.confidence >= 1 && slot.stride != 0 {
			// Run two strides ahead: a one-stride lookahead arrives too
			// late when the loop iterates faster than memory responds.
			return uint32(int32(line) + 2*slot.stride), true
		}
		return 0, false
	}
	return 0, false
}

// maybePrefetch issues a prefetch for the follower of a demand miss.
func (h *Hierarchy) maybePrefetch(missLine, pc uint32, now int64) {
	pf := h.prefetch
	if pf == nil || pf.mode == PrefetchOff {
		return
	}
	target, ok := pf.predict(missLine, pc)
	if !ok {
		return
	}
	addr := target << uint32(h.L1D.lineShift)
	if h.L1D.Present(addr) {
		return
	}
	slot, outstanding := h.pending.find(target)
	if outstanding {
		return
	}
	if h.prefetchOutstanding >= prefetchBufEntries {
		return
	}
	fillAt, _ := h.l2Access(addr, now)
	h.pending.insertAt(slot, pendingFill{line: target, fill: fillAt + int64(h.P.L1DFillOcc), prefetch: true})
	h.prefetchOutstanding++
	pf.issued[target] = true
	h.Stats.PrefetchesIssued++
}

// notePrefetchUse records a demand access that found its line provided by
// a prefetch.
func (h *Hierarchy) notePrefetchUse(line uint32) {
	if h.prefetch == nil {
		return
	}
	if h.prefetch.issued[line] {
		delete(h.prefetch.issued, line)
		h.Stats.PrefetchesUseful++
	}
}

package cache

import (
	"fmt"
	"math"
)

// pendingFill is one outstanding line fetch: a demand miss holding a miss
// register or a prefetch holding a prefetch-buffer entry.
type pendingFill struct {
	line     uint32
	prefetch bool
	fill     int64
}

// noFill is the earliest-fill value of an empty miss-register file.
const noFill = math.MaxInt64

// mshrFile is the hierarchy's miss-register file: the outstanding demand
// misses and prefetches, kept sorted by line address, with the earliest
// fill time cached. It holds at most MSHRs + prefetchBufEntries entries,
// so every operation is a short walk over one or two cache lines of host
// memory, and "is any fill due?" — asked on every data access — is one
// compare against earliest. Entries change only at events (a miss
// starts, a fill installs or is served to its replay), which is when
// earliest is maintained; nothing is rescanned per access.
//
// The ordering is the determinism rule: installs evict conflicting
// victims, so fills ready in the same cycle must install in a fixed order
// for whole-simulation results to be bit-reproducible. Ascending line
// order is what the file gives by construction, and it is also the order
// checkpoints serialize the registers in.
type mshrFile struct {
	e        []pendingFill
	earliest int64 // min fill over e, noFill when empty
}

// newMSHRFile returns an empty file with room for capacity entries. The
// capacity is a preallocation, not a limit: the demand-register limit is
// enforced by the access path against the live Params.MSHRs (which a
// measurement-time override may raise), and a restored snapshot may hold
// whatever its machine held.
func newMSHRFile(capacity int) mshrFile {
	return mshrFile{e: make([]pendingFill, 0, capacity), earliest: noFill}
}

// find returns the index of line's entry, or the index it would be
// inserted at and false.
func (f *mshrFile) find(line uint32) (int, bool) {
	for i := range f.e {
		if f.e[i].line >= line {
			return i, f.e[i].line == line
		}
	}
	return len(f.e), false
}

// insertAt adds an entry at index i, which must be find's answer for its
// line.
func (f *mshrFile) insertAt(i int, pf pendingFill) {
	f.e = append(f.e, pendingFill{})
	copy(f.e[i+1:], f.e[i:])
	f.e[i] = pf
	if pf.fill < f.earliest {
		f.earliest = pf.fill
	}
}

// removeAt deletes the entry at index i.
func (f *mshrFile) removeAt(i int) {
	fill := f.e[i].fill
	f.e = append(f.e[:i], f.e[i+1:]...)
	if fill == f.earliest {
		f.rescanEarliest()
	}
}

// rebuild re-inserts the entries one by one, for a file whose entries
// came from outside (a restored checkpoint). Checkpoints hold the
// registers in ascending line order; inserting each at its sorted
// position rebuilds the file and its cached earliest fill without
// trusting that, dropping duplicates.
func (f *mshrFile) rebuild() {
	loaded := f.e
	f.e, f.earliest = make([]pendingFill, 0, cap(loaded)), noFill
	for _, pf := range loaded {
		if slot, dup := f.find(pf.line); !dup {
			f.insertAt(slot, pf)
		}
	}
}

// rescanEarliest recomputes the cached earliest fill from the entries.
func (f *mshrFile) rescanEarliest() {
	f.earliest = noFill
	for i := range f.e {
		if f.e[i].fill < f.earliest {
			f.earliest = f.e[i].fill
		}
	}
}

// check verifies the file's two structural properties: entries strictly
// ascending by line, and the cached earliest fill equal to the minimum
// over them.
func (f *mshrFile) check() error {
	earliest := int64(noFill)
	for i, pf := range f.e {
		if i > 0 && f.e[i-1].line >= pf.line {
			return fmt.Errorf("miss-register file out of order: line %#x before %#x", f.e[i-1].line, pf.line)
		}
		if pf.fill < earliest {
			earliest = pf.fill
		}
	}
	if earliest != f.earliest {
		return fmt.Errorf("cached earliest fill %d, but the earliest pending fill is %d", f.earliest, earliest)
	}
	return nil
}

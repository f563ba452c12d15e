// Package mem implements the functional (value-holding) memory shared by
// the simulated processors. It is a sparse, paged, byte-addressed memory
// supporting aligned 32-bit word and 64-bit double accesses — the two
// access widths of the simulated ISA.
//
// Timing is handled entirely by internal/cache and internal/coherence;
// this package only stores values.
package mem

import (
	"fmt"

	"repro/internal/snapshot"
)

const (
	// PageShift selects 4 KiB pages — the page size assumed by the data
	// TLB model.
	PageShift = 12
	pageBytes = 1 << PageShift
	pageCells = pageBytes / 8
	cellMask  = pageCells - 1
)

type page [pageCells]uint64

// The page table has two levels keyed by page number: a fixed root of
// leaves, each leaf a run of page pointers. A lookup is two indexed loads
// however many pages are touched, and a walk in index order visits pages
// in ascending page-number order, which Hash and State need.
const (
	pageNumberBits = 32 - PageShift
	leafBits       = pageNumberBits / 2
	leafSize       = 1 << leafBits
	leafMask       = leafSize - 1
	rootSize       = 1 << (pageNumberBits - leafBits)
)

type leaf [leafSize]*page

// Memory is a sparse functional memory. The zero value is an empty memory
// ready to use; all bytes read as zero until written. A Memory is not safe
// for concurrent use: even loads update the last-page memo.
type Memory struct {
	root   [rootSize]*leaf
	npages int // non-nil page pointers under root

	// lastPN/lastPage memoize the most recently touched page (valid when
	// lastPage != nil): sequential accesses skip the table.
	lastPN   uint32
	lastPage *page
}

// New returns an empty memory.
func New() *Memory { return new(Memory) }

func (m *Memory) page(addr uint32, create bool) *page {
	pn := addr >> PageShift
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	var p *page
	if l := m.root[pn>>leafBits]; l != nil {
		p = l[pn&leafMask]
	}
	if p == nil {
		if !create {
			return nil
		}
		p = new(page)
		m.install(pn, p)
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// install puts p in the table as page pn, which must be empty.
func (m *Memory) install(pn uint32, p *page) {
	l := m.root[pn>>leafBits]
	if l == nil {
		l = new(leaf)
		m.root[pn>>leafBits] = l
	}
	l[pn&leafMask] = p
	m.npages++
}

// walk calls f on every page in ascending page-number order.
func (m *Memory) walk(f func(pn uint32, p *page)) {
	for hi, l := range &m.root {
		if l == nil {
			continue
		}
		for lo, p := range l {
			if p != nil {
				f(uint32(hi)<<leafBits|uint32(lo), p)
			}
		}
	}
}

func checkAlign(addr uint32, align uint32, op string) {
	if addr%align != 0 {
		panic(fmt.Sprintf("mem: unaligned %s at %#x (need %d-byte alignment)", op, addr, align))
	}
}

// LoadW reads the 32-bit word at addr (4-byte aligned).
func (m *Memory) LoadW(addr uint32) uint32 {
	checkAlign(addr, 4, "LoadW")
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	cell := p[(addr>>3)&cellMask]
	if addr&4 != 0 {
		return uint32(cell >> 32)
	}
	return uint32(cell)
}

// StoreW writes the 32-bit word at addr (4-byte aligned) and returns the
// previous value (useful for tests and for atomic read-modify-write).
func (m *Memory) StoreW(addr uint32, v uint32) (old uint32) {
	checkAlign(addr, 4, "StoreW")
	p := m.page(addr, true)
	idx := (addr >> 3) & cellMask
	cell := p[idx]
	if addr&4 != 0 {
		old = uint32(cell >> 32)
		p[idx] = cell&0x0000_0000_ffff_ffff | uint64(v)<<32
	} else {
		old = uint32(cell)
		p[idx] = cell&0xffff_ffff_0000_0000 | uint64(v)
	}
	return old
}

// LoadD reads the 64-bit doubleword at addr (8-byte aligned).
func (m *Memory) LoadD(addr uint32) uint64 {
	checkAlign(addr, 8, "LoadD")
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[(addr>>3)&cellMask]
}

// StoreD writes the 64-bit doubleword at addr (8-byte aligned) and returns
// the previous value.
func (m *Memory) StoreD(addr uint32, v uint64) (old uint64) {
	checkAlign(addr, 8, "StoreD")
	p := m.page(addr, true)
	idx := (addr >> 3) & cellMask
	old = p[idx]
	p[idx] = v
	return old
}

// TestAndSet atomically reads the word at addr and sets it to 1,
// returning the old value. Simulation is single-threaded, so the atomicity
// is with respect to simulated processors, which is exactly what the TAS
// instruction requires.
func (m *Memory) TestAndSet(addr uint32) (old uint32) {
	return m.StoreW(addr, 1)
}

// PageCount reports how many 4 KiB pages have been touched; used by tests
// and by memory-footprint reporting.
func (m *Memory) PageCount() int { return m.npages }

// Hash returns a deterministic FNV-1a digest of the memory *contents*:
// only nonzero cells contribute, keyed by address, so two memories that
// read identically hash identically even if one touched (and zeroed)
// pages the other never allocated. Chaos-mode tests compare these digests
// to assert that timing perturbation never changes architectural state.
//
// Hash only reads the table, so it is safe to call concurrently with
// other Hash calls on the same Memory — cells forked from one checkpoint
// hash their (logically distinct, physically restored-from-shared-bytes)
// memories from pool goroutines.
func (m *Memory) Hash() uint64 {
	h := uint64(snapshot.FNVOffset)
	m.walk(func(pn uint32, p *page) {
		for i, cell := range p {
			if cell == 0 {
				continue
			}
			h = snapshot.Fold(snapshot.Fold(h, uint64(pn)<<16|uint64(i)), cell)
		}
	})
	return h
}

// Reset drops all pages, returning the memory to all-zeroes. The table's
// leaves stay allocated for whatever is stored next.
func (m *Memory) Reset() {
	for _, l := range &m.root {
		if l != nil {
			clear(l[:])
		}
	}
	m.npages = 0
	m.lastPage = nil
}

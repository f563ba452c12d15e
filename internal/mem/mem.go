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
	"sort"

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

// pageCacheSize is the direct-mapped page-translation cache: simulated
// working sets touch a handful of pages per inner loop, so a small
// power-of-two cache absorbs almost every map lookup.
const (
	pageCacheSize = 64
	pageCacheMask = pageCacheSize - 1
)

type pageCacheEntry struct {
	pn uint32
	p  *page
}

// Memory is a sparse functional memory. The zero value is an empty memory
// ready to use; all bytes read as zero until written. A Memory is not safe
// for concurrent use: even loads update the internal page-lookup caches.
type Memory struct {
	pages map[uint32]*page

	// lastPN/lastPage memoize the most recently touched page (valid when
	// lastPage != nil) and cache backs it up direct-mapped; both skip the
	// map on the sequential and small-working-set accesses that dominate
	// simulated memory traffic.
	lastPN   uint32
	lastPage *page
	cache    [pageCacheSize]pageCacheEntry
}

// New returns an empty memory.
func New() *Memory { return &Memory{pages: make(map[uint32]*page)} }

func (m *Memory) page(addr uint32, create bool) *page {
	pn := addr >> PageShift
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	if e := &m.cache[pn&pageCacheMask]; e.p != nil && e.pn == pn {
		m.lastPN, m.lastPage = pn, e.p
		return e.p
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		if m.pages == nil {
			m.pages = make(map[uint32]*page)
		}
		p = new(page)
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage = pn, p
	m.cache[pn&pageCacheMask] = pageCacheEntry{pn: pn, p: p}
	return p
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
func (m *Memory) PageCount() int { return len(m.pages) }

// Hash returns a deterministic FNV-1a digest of the memory *contents*:
// only nonzero cells contribute, keyed by address, so two memories that
// read identically hash identically even if one touched (and zeroed)
// pages the other never allocated. Chaos-mode tests compare these digests
// to assert that timing perturbation never changes architectural state.
//
// Hash allocates its page-number scratch locally so it is safe to call
// concurrently with other Hash calls on the same Memory — cells forked
// from one checkpoint hash their (logically distinct, physically
// restored-from-shared-bytes) memories from pool goroutines.
func (m *Memory) Hash() uint64 {
	pns := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	h := uint64(snapshot.FNVOffset)
	for _, pn := range pns {
		p := m.pages[pn]
		for i, cell := range p {
			if cell == 0 {
				continue
			}
			h = snapshot.Fold(snapshot.Fold(h, uint64(pn)<<16|uint64(i)), cell)
		}
	}
	return h
}

// Reset drops all pages, returning the memory to all-zeroes. The page
// map keeps its capacity for whatever is stored next.
func (m *Memory) Reset() {
	if m.pages == nil {
		m.pages = make(map[uint32]*page)
	}
	clear(m.pages)
	m.lastPage = nil
	m.cache = [pageCacheSize]pageCacheEntry{}
}

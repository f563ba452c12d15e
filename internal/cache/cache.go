// Package cache implements the workstation memory hierarchy of paper §4.1:
// direct-mapped 64 KB primary instruction and data caches, a unified 1 MB
// direct-mapped secondary cache, and a four-way interleaved memory system
// behind a split-transaction bus. The data cache is lockup-free (a small
// number of MSHRs track outstanding misses); the instruction cache is
// blocking. A 64-entry data TLB models the "Data Cache/TLB" stall category.
//
// Caches here are timing-only: they record presence, dirtiness and port
// occupancy. All data values live in the functional memory.
package cache

import (
	"fmt"
	"math/rand"

	"repro/internal/guard"
)

// Params collects every hierarchy parameter. Defaults reproduce paper
// Tables 1 and 2.
type Params struct {
	LineSize int // bytes per line in all caches

	L1ISize int
	L1DSize int
	L2Size  int

	MSHRs int // outstanding primary data misses (lockup-free depth)

	// Unloaded latencies (Table 2), in cycles from the miss request.
	L2HitLatency  int // primary miss satisfied in secondary
	MemLatency    int // reply from memory
	LoadUseCycles int // primary hit: cycles until the value forwards (Table 3 load latency)

	// Occupancies (Table 1).
	L1DReadOcc  int
	L1DWriteOcc int
	L1DInvOcc   int
	L1DFillOcc  int
	L1IFillOcc  int // 8: the I-cache fetches two lines
	L2ReadOcc   int
	L2WriteOcc  int
	L2InvOcc    int
	L2FillOcc   int

	// Memory banks.
	NumBanks int
	BankOcc  int // cycles a bank stays busy per line access

	// Data TLB.
	TLBEntries int
	TLBPenalty int // refill cycles

	// Prefetch selects the hardware prefetcher (off by default; the
	// paper's machine has none).
	Prefetch PrefetchMode

	// Chaos, when non-nil, perturbs every secondary-cache, memory and TLB
	// latency by a seeded deterministic jitter (guard fault-injection
	// mode). Timing-only: architectural results must not change.
	Chaos *guard.Chaos
}

// DefaultParams returns the paper's workstation configuration.
func DefaultParams() Params {
	return Params{
		LineSize:      32,
		L1ISize:       64 << 10,
		L1DSize:       64 << 10,
		L2Size:        1 << 20,
		MSHRs:         4,
		L2HitLatency:  9,
		MemLatency:    34,
		LoadUseCycles: 3,
		L1DReadOcc:    1,
		L1DWriteOcc:   1,
		L1DInvOcc:     2,
		L1DFillOcc:    1,
		L1IFillOcc:    8,
		L2ReadOcc:     2,
		L2WriteOcc:    2,
		L2InvOcc:      4,
		L2FillOcc:     2,
		NumBanks:      4,
		BankOcc:       16,
		TLBEntries:    64,
		TLBPenalty:    25,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.LineSize <= 0 || p.LineSize&(p.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d not a positive power of two", p.LineSize)
	case p.L1DSize%p.LineSize != 0 || p.L1ISize%p.LineSize != 0 || p.L2Size%p.LineSize != 0:
		return fmt.Errorf("cache: sizes must be line multiples")
	case p.MSHRs < 1:
		return fmt.Errorf("cache: need at least one MSHR")
	case p.NumBanks < 1:
		return fmt.Errorf("cache: need at least one memory bank")
	case p.TLBEntries < 1 || p.TLBEntries&(p.TLBEntries-1) != 0:
		return fmt.Errorf("cache: TLB entries must be a power of two")
	}
	return nil
}

// Cache is a direct-mapped, timing-only cache. Lines are identified by
// their line address (byte address >> log2(lineSize)).
type Cache struct {
	lineShift uint
	sets      uint32
	tags      []uint32 // per set: the resident line address
	valid     []bool
	dirty     []bool
}

// NewCache returns a direct-mapped cache of size bytes with lineSize-byte
// lines. Size and lineSize must be powers of two.
func NewCache(size, lineSize int) *Cache {
	if size <= 0 || lineSize <= 0 || size%lineSize != 0 {
		panic("cache: invalid geometry")
	}
	sets := size / lineSize
	if sets&(sets-1) != 0 || lineSize&(lineSize-1) != 0 {
		panic("cache: geometry must be powers of two")
	}
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}
	return &Cache{
		lineShift: shift,
		sets:      uint32(sets),
		tags:      make([]uint32, sets),
		valid:     make([]bool, sets),
		dirty:     make([]bool, sets),
	}
}

// reuse returns c if it has the geometry NewCache(size, lineSize) would
// build, contents and all, and a new empty cache otherwise (c nil
// included).
func (c *Cache) reuse(size, lineSize int) *Cache {
	if c != nil && lineSize > 0 && int(c.sets) == size/lineSize && 1<<c.lineShift == lineSize {
		return c
	}
	return NewCache(size, lineSize)
}

// Line returns the line address of a byte address.
func (c *Cache) Line(addr uint32) uint32 { return addr >> c.lineShift }

func (c *Cache) set(line uint32) uint32 { return line & (c.sets - 1) }

// Sets returns the number of sets (lines) in the cache.
func (c *Cache) Sets() int { return int(c.sets) }

// Present reports whether the line containing addr is resident.
func (c *Cache) Present(addr uint32) bool {
	line := c.Line(addr)
	s := c.set(line)
	return c.valid[s] && c.tags[s] == line
}

// MarkDirty marks addr's line dirty; it must be resident.
func (c *Cache) MarkDirty(addr uint32) {
	line := c.Line(addr)
	s := c.set(line)
	if c.valid[s] && c.tags[s] == line {
		c.dirty[s] = true
	}
}

// Dirty reports whether addr's line is resident and dirty.
func (c *Cache) Dirty(addr uint32) bool {
	line := c.Line(addr)
	s := c.set(line)
	return c.valid[s] && c.tags[s] == line && c.dirty[s]
}

// Fill installs addr's line, returning the victim line address and whether
// it was dirty. hadVictim is false when the set was empty.
func (c *Cache) Fill(addr uint32, dirty bool) (victim uint32, victimDirty, hadVictim bool) {
	line := c.Line(addr)
	s := c.set(line)
	if c.valid[s] {
		if c.tags[s] == line {
			// Refill of a resident line: merge dirtiness, no victim.
			c.dirty[s] = c.dirty[s] || dirty
			return 0, false, false
		}
		victim, victimDirty, hadVictim = c.tags[s], c.dirty[s], true
	}
	c.tags[s] = line
	c.valid[s] = true
	c.dirty[s] = dirty
	return victim, victimDirty, hadVictim
}

// Invalidate drops addr's line if resident; it reports whether the line
// was present and whether it was dirty.
func (c *Cache) Invalidate(addr uint32) (present, dirty bool) {
	line := c.Line(addr)
	s := c.set(line)
	if c.valid[s] && c.tags[s] == line {
		present, dirty = true, c.dirty[s]
		c.valid[s] = false
		c.dirty[s] = false
	}
	return present, dirty
}

// DisplaceRandom invalidates n randomly chosen sets; it models the cache
// interference of an operating-system scheduler invocation (paper Table 6).
func (c *Cache) DisplaceRandom(n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		s := uint32(rng.Intn(int(c.sets)))
		c.valid[s] = false
		c.dirty[s] = false
	}
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
	}
}

// ResidentLines counts valid lines; used by tests.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

// TLB is a direct-mapped translation buffer over 4 KiB pages. Like the
// caches it is timing-only: every address translates identity; the TLB
// just decides whether the translation costs a refill.
type TLB struct {
	mask uint32
	tags []uint32
	ok   []bool
}

// NewTLB returns a TLB with entries slots (a power of two).
func NewTLB(entries int) *TLB {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("cache: TLB entries must be a positive power of two")
	}
	return &TLB{mask: uint32(entries - 1), tags: make([]uint32, entries), ok: make([]bool, entries)}
}

// Lookup probes the TLB for addr's page, installing it on a miss, and
// reports whether the probe hit.
func (t *TLB) Lookup(addr uint32) bool {
	page := addr >> 12
	s := page & t.mask
	if t.ok[s] && t.tags[s] == page {
		return true
	}
	t.tags[s] = page
	t.ok[s] = true
	return false
}

// DisplaceRandom invalidates n random TLB entries (scheduler interference).
func (t *TLB) DisplaceRandom(n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		t.ok[rng.Intn(len(t.ok))] = false
	}
}

// Package memsys defines the timing interface between the processor core
// and a memory system. Two implementations exist: internal/cache (the
// workstation's two-level hierarchy with interleaved memory banks, paper
// §4.1) and internal/coherence (the multiprocessor's directory-based
// single-level hierarchy, paper §5.2).
//
// The memory systems in this repository are timing-only: all values live
// in the functional memory (internal/mem); caches track presence, dirtiness
// and occupancy to compute latencies.
package memsys

// MissClass classifies where a data access was satisfied. It drives both
// the statistics breakdown and the cause attribution of context
// unavailability.
type MissClass uint8

// Miss classes. The first group is the uniprocessor hierarchy (Table 2);
// the second group is the multiprocessor latency classes (Table 8).
const (
	HitL1    MissClass = iota
	HitL2              // primary miss satisfied by the secondary cache (9 cycles)
	Memory             // satisfied by main memory (34 cycles)
	TLBMiss            // data TLB refill
	MSHRFull           // structural: all miss registers busy, retry later

	LocalMem    // MP: home is this node's memory
	RemoteMem   // MP: home is another node's memory
	RemoteCache // MP: line was dirty in another node's cache

	NumMissClasses = iota
)

var missClassNames = [NumMissClasses]string{
	"l1-hit", "l2-hit", "memory", "tlb-miss", "mshr-full",
	"local", "remote", "remote-cache",
}

func (c MissClass) String() string {
	if int(c) < len(missClassNames) {
		return missClassNames[c]
	}
	return "miss(?)"
}

// DataResult is the outcome of a timing access to data memory.
type DataResult struct {
	// Hit reports whether the access completed without making the
	// context unavailable. For hits, ReadyAt is the cycle at which a
	// loaded value is available for forwarding.
	Hit     bool
	ReadyAt int64
	// For misses, FillAt is the cycle at which the line (or TLB entry)
	// is present and the faulting instruction may replay.
	FillAt int64
	Class  MissClass
}

// DataMemory is the timing interface for loads, stores and atomics.
type DataMemory interface {
	// AccessData performs a timing access at cycle now. write is true
	// for stores and atomic read-modify-writes. pc is the byte address
	// of the issuing instruction: reference-prediction hardware (the
	// stride prefetcher) indexes its tables by it; implementations may
	// ignore it.
	AccessData(addr uint32, write bool, pc uint32, now int64) DataResult
}

// InstMemory is the timing interface for instruction fetch. The I-cache is
// blocking (paper §4.1): on a miss the whole processor stalls until
// readyAt regardless of scheme.
type InstMemory interface {
	// FetchInst returns the cycle at which the instruction at addr is
	// available, and whether the fetch missed the I-cache.
	FetchInst(addr uint32, now int64) (readyAt int64, miss bool)
}

// System is a complete memory system as seen by one processor.
type System interface {
	DataMemory
	InstMemory
}

// IdealInstFetch is implemented by instruction memories whose FetchInst
// is pure: it always hits, returns readyAt == now, mutates no state and
// keeps no statistics (the multiprocessor models its I-cache as ideal).
// The core's fast-forward engine may then reason about the repeated
// re-fetches of a stalled instruction without performing them, which
// turns multi-cycle dependency-interlock and functional-unit stalls into
// skippable regions on single-context and blocked-scheme processors.
type IdealInstFetch interface {
	// InstFetchIsIdeal reports whether FetchInst is pure as defined above.
	InstFetchIsIdeal() bool
}

// CountedInstFetch is implemented by instruction memories whose FetchInst,
// when it hits, returns readyAt == now and has no effect but one fetch
// count (the workstation's I-cache: a direct-mapped presence test beside
// Stats.InstFetches). The re-fetches of a stalled instruction whose line
// is resident are then a number, not calls: the fast-forward engine asks
// InstFetchHits where Step would have fetched and settles the count with
// CountInstFetches, so a monopolist's interlock and functional-unit stalls
// are skippable regions over this memory too. A fetch that would miss is
// never reasoned about — the engine performs it, through FetchInst.
type CountedInstFetch interface {
	// InstFetchHits reports whether FetchInst(addr, now) would hit at any
	// now until the next FetchInst miss or external displacement. It
	// mutates nothing.
	InstFetchHits(addr uint32) bool
	// CountInstFetches accounts n fetches InstFetchHits answered true for,
	// exactly as n FetchInst calls would have.
	CountInstFetches(n int64)
}

// Completer is implemented by memory systems that can report their
// earliest outstanding completion. The core's stall fast-forward engine
// consults it when deciding how far the clock may bulk-advance.
type Completer interface {
	// NextCompletion returns the cycle of the earliest in-flight fill
	// completing strictly after now, or math.MaxInt64 when nothing is in
	// flight.
	NextCompletion(now int64) int64

	// PullBasedTiming reports whether every observable state change in
	// this memory system happens inside AccessData/FetchInst calls — i.e.
	// a completed fill has no effect until the next access touches it
	// (lazy install), and no background machinery acts on its own clock.
	//
	// When true, the fast-forward engine may skip an access-free region
	// in one jump even if fills complete inside it: the completions are
	// already priced into the waiters' wake-up times (DataResult.FillAt
	// flows into context availability), and un-awaited completions are
	// invisible until the next access, which lands on the same cycle
	// either way. When false, the engine conservatively stops every skip
	// at NextCompletion, which is exact for any memory system at the cost
	// of shorter skips. Both systems in this repository are pull-based.
	PullBasedTiming() bool
}

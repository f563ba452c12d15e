// Package coherence implements the multiprocessor memory system of paper
// §5.2: per-node single-level lockup-free data caches kept coherent by a
// distributed, directory-based write-invalidate protocol in the style of
// Stanford DASH, with an ideal instruction cache and a contentionless
// interconnect whose latencies are drawn from the uniform distributions of
// Table 8.
//
// The protocol is simulated at atomic-transaction granularity: directory
// state changes (invalidations, ownership transfer) apply at request time;
// only the data transfer latency is modeled, which is the fidelity the
// paper's evaluation uses (cache contention dominates; network and memory
// are contentionless).
package coherence

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cache"
	"repro/internal/guard"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/snapshot"
)

// Params configures the fabric. The paper's Table 8 ranges are garbled in
// the source text; the defaults are DASH-era reconstructions documented in
// DESIGN.md §3.
type Params struct {
	LineSize      int
	CacheSize     int
	LoadUseCycles int

	LocalLow, LocalHigh   int // reply from local memory
	RemoteLow, RemoteHigh int // reply from remote memory
	DirtyLow, DirtyHigh   int // reply from remote cache (dirty)

	Seed int64

	// Chaos, when non-nil, perturbs every reply latency by a seeded
	// deterministic jitter (guard fault-injection mode). Timing-only:
	// architectural results must not change.
	Chaos *guard.Chaos
}

// DefaultParams returns the paper's multiprocessor node configuration.
func DefaultParams() Params {
	return Params{
		LineSize:      32,
		CacheSize:     64 << 10,
		LoadUseCycles: 3,
		LocalLow:      20, LocalHigh: 40,
		RemoteLow: 70, RemoteHigh: 110,
		DirtyLow: 90, DirtyHigh: 130,
		Seed: 1,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.LineSize <= 0 || p.LineSize&(p.LineSize-1) != 0:
		return fmt.Errorf("coherence: bad line size %d", p.LineSize)
	case p.CacheSize%p.LineSize != 0:
		return fmt.Errorf("coherence: cache size not a line multiple")
	case p.LocalLow > p.LocalHigh || p.RemoteLow > p.RemoteHigh || p.DirtyLow > p.DirtyHigh:
		return fmt.Errorf("coherence: inverted latency range")
	}
	return nil
}

// dirEntry is the directory state of one line: at most one dirty owner, or
// any number of sharers.
type dirEntry struct {
	owner   int    // exclusive dirty owner, -1 if none
	sharers uint64 // bitmask of nodes with (possibly in-flight) shared copies
}

// The directory is a two-level radix: a map of fixed-size pages, each
// covering a contiguous run of lines, fronted by a last-page memo and a
// small direct-mapped page cache (the same layout internal/mem uses for
// data pages). Every data access consults the directory several times
// (rights check, transition, victim bookkeeping); streaming workloads made
// the per-line map lookups the hottest fabric operation, and replays land
// on the just-missed line, so the memo absorbs most of them.
const (
	dirPageShift = 11 // 2048 lines per page
	dirPageLines = 1 << dirPageShift
	dirPageMask  = dirPageLines - 1
)

type dirPage [dirPageLines]dirEntry

type pendingFill struct {
	line      uint32
	exclusive bool
	fill      int64
}

// fillHoldCycles mirrors internal/cache: a completed fill is held for its
// faulting access so replays are guaranteed to hit (forward progress), and
// installed unilaterally if abandoned.
const fillHoldCycles = 256

// Stats counts per-node access outcomes.
type Stats struct {
	Accesses      int64
	ByClass       [memsys.NumMissClasses]int64
	Invalidations int64 // invalidations this node received
	Upgrades      int64 // write hits on shared lines needing ownership
	Deferred      int64 // requests NAKed while an exclusive was in flight
}

// Node is one processor's view of the fabric; it implements memsys.System.
type Node struct {
	fab   *Fabric
	id    int
	cache *cache.Cache
	// pending holds this node's in-flight fills (its miss registers), in
	// request order. It is a slice, not a map: it has at most a handful of
	// entries, every access scans it (fill service, merge, and each miss
	// probes every other node's set for transaction serialization), and a
	// linear scan of a tiny slice beats map hashing while giving
	// deterministic iteration for free.
	pending []pendingFill
	Stats   Stats
	obsSink *metrics.Sink
}

// AttachMetrics registers the counters this node mutates through its own
// execution with m's registry and installs its event sink. Stats.
// Invalidations is deliberately absent: other nodes increment it, so at a
// sample point its value depends on how far those nodes have advanced —
// which fast-forwarding reorders within a block. Cross-node counters
// belong in a cell-scope registry sampled where all processors settle
// (internal/mp does this at guard-check boundaries).
func (n *Node) AttachMetrics(m *metrics.ProcMetrics) {
	if m == nil {
		return
	}
	n.obsSink = m.Sink
	reg := m.Reg
	reg.Register("coh/accesses", &n.Stats.Accesses)
	for c := 0; c < memsys.NumMissClasses; c++ {
		reg.Register("coh/"+memsys.MissClass(c).String(), &n.Stats.ByClass[c])
	}
	reg.Register("coh/upgrades", &n.Stats.Upgrades)
	reg.Register("coh/deferred", &n.Stats.Deferred)
}

// Fabric is the shared directory and interconnect for all nodes.
type Fabric struct {
	P      Params
	nodes  []*Node
	dir    map[uint32]*dirPage
	rng    *rand.Rand
	rngSrc *snapshot.CountingSource // rng's source; counts draws so the stream position checkpoints

	lastPageNo uint32
	lastPage   *dirPage
	pageCache  [64]struct {
		no uint32
		pg *dirPage
	}
}

// NewFabric builds a fabric with n nodes.
func NewFabric(p Params, n int) (*Fabric, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("coherence: node count %d out of range [1,64]", n)
	}
	src := snapshot.NewCountingSource(p.Seed)
	f := &Fabric{
		P:      p,
		dir:    make(map[uint32]*dirPage),
		rng:    rand.New(src),
		rngSrc: src,
	}
	for i := 0; i < n; i++ {
		f.nodes = append(f.nodes, &Node{
			fab:   f,
			id:    i,
			cache: cache.NewCache(p.CacheSize, p.LineSize),
		})
	}
	return f, nil
}

// MustNewFabric is NewFabric that panics on error.
func MustNewFabric(p Params, n int) *Fabric {
	f, err := NewFabric(p, n)
	if err != nil {
		panic(fmt.Errorf("coherence: MustNewFabric(%d nodes): %w", n, err))
	}
	return f
}

// Nodes returns the number of nodes.
func (f *Fabric) Nodes() int { return len(f.nodes) }

// Node returns node i's memory system.
func (f *Fabric) Node(i int) *Node { return f.nodes[i] }

// home gives the line's home node: lines are interleaved round-robin, the
// uniform distribution of shared data across node memories.
func (f *Fabric) home(line uint32) int { return int(line) % len(f.nodes) }

// page returns the directory page covering line, or nil if no line in it
// has ever been touched. The last-page memo catches miss/replay pairs and
// loop-local accesses; the direct-mapped cache catches alternation between
// a few hot regions; the map is the slow path.
func (f *Fabric) page(line uint32) *dirPage {
	no := line >> dirPageShift
	if f.lastPage != nil && f.lastPageNo == no {
		return f.lastPage
	}
	slot := &f.pageCache[no&uint32(len(f.pageCache)-1)]
	pg := slot.pg
	if pg == nil || slot.no != no {
		pg = f.dir[no]
		if pg == nil {
			return nil
		}
		slot.no, slot.pg = no, pg
	}
	f.lastPageNo, f.lastPage = no, pg
	return pg
}

// entry returns line's directory entry, allocating its page on first touch
// (fresh entries have no owner and no sharers).
func (f *Fabric) entry(line uint32) *dirEntry {
	pg := f.page(line)
	if pg == nil {
		pg = new(dirPage)
		for i := range pg {
			pg[i].owner = -1
		}
		no := line >> dirPageShift
		f.dir[no] = pg
		f.lastPageNo, f.lastPage = no, pg
	}
	return &pg[line&dirPageMask]
}

// peekEntry returns line's directory entry without allocating, or nil if
// the line's page has never been touched (equivalent to an entry with no
// owner and no sharers).
func (f *Fabric) peekEntry(line uint32) *dirEntry {
	pg := f.page(line)
	if pg == nil {
		return nil
	}
	return &pg[line&dirPageMask]
}

func (f *Fabric) uniform(lo, hi int) int64 {
	if hi <= lo {
		return int64(lo)
	}
	return int64(lo + f.rng.Intn(hi-lo+1))
}

// latency returns the reply latency for the given class.
func (f *Fabric) latency(c memsys.MissClass) int64 {
	switch c {
	case memsys.LocalMem:
		return f.P.Chaos.Perturb(f.uniform(f.P.LocalLow, f.P.LocalHigh))
	case memsys.RemoteMem:
		return f.P.Chaos.Perturb(f.uniform(f.P.RemoteLow, f.P.RemoteHigh))
	case memsys.RemoteCache:
		return f.P.Chaos.Perturb(f.uniform(f.P.DirtyLow, f.P.DirtyHigh))
	}
	return 1
}

// lineAddr converts a line number back to a byte address.
func (f *Fabric) lineAddr(line uint32) uint32 {
	ls := uint32(f.P.LineSize)
	return line * ls
}

// evicted is called by a node when installing a line displaced victim.
func (f *Fabric) evicted(n int, victimLine uint32) {
	e := f.peekEntry(victimLine)
	if e == nil {
		return
	}
	if e.owner == n {
		e.owner = -1 // writeback to home (contentionless: occupancy-free)
	}
	e.sharers &^= 1 << uint(n)
}

// FetchInst implements memsys.InstMemory: the multiprocessor study models
// the instruction cache as ideal (§5.2).
func (n *Node) FetchInst(addr uint32, now int64) (int64, bool) { return now, false }

// InstFetchIsIdeal implements memsys.IdealInstFetch: FetchInst above is
// pure, so the core may fast-forward interlock stalls across it.
func (n *Node) InstFetchIsIdeal() bool { return true }

// findPending returns the index of line in n.pending, or -1.
func (n *Node) findPending(line uint32) int {
	for i := range n.pending {
		if n.pending[i].line == line {
			return i
		}
	}
	return -1
}

// removePending deletes entry i, preserving request order.
func (n *Node) removePending(i int) {
	n.pending = append(n.pending[:i], n.pending[i+1:]...)
}

// AccessData implements memsys.DataMemory with MSI directory coherence.
func (n *Node) AccessData(addr uint32, write bool, pc uint32, now int64) memsys.DataResult {
	n.Stats.Accesses++
	f := n.fab
	line := addr / uint32(f.P.LineSize)

	// Expire abandoned fills, in ascending line order: installs evict
	// conflicting victims, so the processing order must not depend on
	// request arrival order.
	if len(n.pending) > 0 {
		var expired []uint32
		for i := range n.pending {
			if n.pending[i].fill+fillHoldCycles <= now {
				expired = append(expired, n.pending[i].line)
			}
		}
		if len(expired) > 0 {
			slices.Sort(expired)
			for _, l := range expired {
				i := n.findPending(l)
				n.install(l, n.pending[i].exclusive)
				n.removePending(i)
			}
		}
	}

	// Completed fill for this line: serve the replay from the miss
	// register and install.
	if i := n.findPending(line); i >= 0 && n.pending[i].fill <= now {
		exclusive := n.pending[i].exclusive
		if n.obsSink != nil {
			n.obsSink.Emit(metrics.Event{
				Cycle: now, Kind: metrics.KindMissFill, Ctx: -1,
				Addr: n.fab.lineAddr(line), Arg: n.pending[i].fill,
			})
		}
		n.removePending(i)
		// The request may have been invalidated while in flight (another
		// node wrote the line): if so, the replay must re-request.
		if n.hasRight(line, write) {
			n.install(line, exclusive)
		}
	}

	if n.cache.Present(addr) {
		if write {
			if e := f.entry(line); e.owner != n.id {
				// Upgrade: shared -> modified. Ownership transfers at
				// request time; the invalidation-acknowledgement latency
				// makes the context wait like a miss.
				n.Stats.Upgrades++
				return n.miss(line, addr, write, pc, now)
			}
			n.cache.MarkDirty(addr)
		}
		n.Stats.ByClass[memsys.HitL1]++
		return memsys.DataResult{Hit: true, ReadyAt: now + int64(f.P.LoadUseCycles), Class: memsys.HitL1}
	}

	if i := n.findPending(line); i >= 0 {
		// Still in flight: merge.
		return memsys.DataResult{FillAt: n.pending[i].fill, Class: memsys.MSHRFull}
	}

	return n.miss(line, addr, write, pc, now)
}

// hasRight reports whether node n's copy of line is good for the access:
// reads need the line not to be dirty elsewhere; writes need ownership.
func (n *Node) hasRight(line uint32, write bool) bool {
	e := n.fab.peekEntry(line)
	if e == nil {
		return !write
	}
	if write {
		return e.owner == n.id
	}
	return e.owner == n.id || e.owner == -1
}

// miss performs a directory transaction and returns the miss result.
func (n *Node) miss(line, addr uint32, write bool, pc uint32, now int64) memsys.DataResult {
	f := n.fab

	// Transaction serialization: while another node has an exclusive
	// request in flight for this line, the directory defers new requests
	// (DASH NAKs and retries them). Without this, a contended lock's
	// release could be stolen before its replay ever completes.
	for i, other := range f.nodes {
		if i == n.id {
			continue
		}
		if j := other.findPending(line); j >= 0 && other.pending[j].exclusive {
			pf := other.pending[j]
			// Retry well after the transaction should complete, with a
			// per-node stagger: aggressive retries turn contended lines
			// into a flush storm on blocked processors.
			n.Stats.Deferred++
			retry := pf.fill + int64(32+5*n.id)
			if min := now + int64(32+5*n.id); retry < min {
				retry = min
			}
			if n.obsSink != nil {
				n.obsSink.Emit(metrics.Event{
					Cycle: now, Kind: metrics.KindSyncRetry, Ctx: -1,
					Addr: addr, PC: pc, Arg: retry,
				})
			}
			return memsys.DataResult{FillAt: retry, Class: memsys.RemoteCache}
		}
	}

	e := f.entry(line)

	// Classify by where the data comes from.
	var class memsys.MissClass
	switch {
	case e.owner >= 0 && e.owner != n.id:
		class = memsys.RemoteCache // dirty in another cache
	case f.home(line) == n.id:
		class = memsys.LocalMem
	default:
		class = memsys.RemoteMem
	}

	// Directory transition at request time.
	if write {
		// Invalidate every other copy, resident or in flight.
		for i, other := range f.nodes {
			if i == n.id {
				continue
			}
			if e.owner == i || e.sharers&(1<<uint(i)) != 0 {
				other.cache.Invalidate(f.lineAddr(line))
				if j := other.findPending(line); j >= 0 {
					other.removePending(j)
				}
				other.Stats.Invalidations++
				// Attributed to the causing node's stream (its execution
				// reaches this point identically in both run modes); the
				// victim rides in Arg.
				if n.obsSink != nil {
					n.obsSink.Emit(metrics.Event{
						Cycle: now, Kind: metrics.KindInval, Ctx: -1,
						Addr: f.lineAddr(line), Arg: int64(i),
					})
				}
			}
		}
		e.owner = n.id
		e.sharers = 1 << uint(n.id)
	} else {
		if e.owner >= 0 && e.owner != n.id {
			// Downgrade the dirty owner to shared; data is written back.
			e.sharers |= 1 << uint(e.owner)
			e.owner = -1
		}
		e.sharers |= 1 << uint(n.id)
	}

	fill := now + f.latency(class)
	if j := n.findPending(line); j >= 0 {
		// Upgrade issued while a request for the line was in flight:
		// replace the miss-register entry rather than duplicating it.
		n.pending[j] = pendingFill{line: line, fill: fill, exclusive: write}
	} else {
		n.pending = append(n.pending, pendingFill{line: line, fill: fill, exclusive: write})
	}
	n.Stats.ByClass[class]++
	if n.obsSink != nil {
		n.obsSink.Emit(metrics.Event{
			Cycle: now, Kind: metrics.KindMissStart, Ctx: -1,
			Class: class.String(), Addr: addr, PC: pc, Arg: fill,
		})
	}
	return memsys.DataResult{FillAt: fill, Class: class}
}

// NextCompletion implements memsys.Completer: the earliest of this node's
// in-flight fills completing strictly after now, or math.MaxInt64 when
// none are outstanding.
func (n *Node) NextCompletion(now int64) int64 {
	next := int64(math.MaxInt64)
	for i := range n.pending {
		if pf := &n.pending[i]; pf.fill > now && pf.fill < next {
			next = pf.fill
		}
	}
	return next
}

// PullBasedTiming implements memsys.Completer: directory state, sharer
// sets, pending fills (this node's and the cross-node exclusive-pending
// probes) and chaos draws all change only inside AccessData calls, so the
// lockstep driver may jump every processor across an access-free region
// in one step. Cross-processor ordering is unaffected: a skip only
// happens when every processor is access-free, and the (cycle, processor)
// transaction order resumes identically at the region's end.
func (n *Node) PullBasedTiming() bool { return true }

// install places a line in the node's cache, handling the victim's
// directory state.
func (n *Node) install(line uint32, exclusive bool) {
	addr := n.fab.lineAddr(line)
	victim, _, had := n.cache.Fill(addr, exclusive)
	if had {
		n.fab.evicted(n.id, victim)
	}
}

// DirectoryInvariants checks protocol invariants for tests: a line with a
// dirty owner has that owner as its only possible resident writer, and
// every resident cache copy is recorded in the directory. It returns an
// error description or "" if clean.
func (f *Fabric) DirectoryInvariants() string {
	for pageNo, pg := range f.dir {
		for idx := range pg {
			e := &pg[idx]
			line := pageNo<<dirPageShift | uint32(idx)
			owners := 0
			for i := range f.nodes {
				if e.owner == i {
					owners++
				}
			}
			if e.owner >= 0 && owners != 1 {
				return fmt.Sprintf("line %#x: owner %d not a node", line, e.owner)
			}
			if e.owner >= 0 && e.sharers&^(1<<uint(e.owner)) != 0 {
				return fmt.Sprintf("line %#x: dirty owner %d with sharers %b", line, e.owner, e.sharers)
			}
			for i, node := range f.nodes {
				if node.cache.Present(f.lineAddr(line)) {
					if e.owner != i && e.sharers&(1<<uint(i)) == 0 {
						return fmt.Sprintf("line %#x: node %d resident but not in directory", line, i)
					}
				}
			}
		}
	}
	return ""
}

var _ memsys.System = (*Node)(nil)

var _ memsys.Completer = (*Node)(nil)

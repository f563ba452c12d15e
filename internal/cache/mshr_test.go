package cache

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/snapshot"
)

// goldenHierarchy drives a small next-line-prefetching hierarchy through a
// fixed mixed script — hits, misses replayed at their fill, misses
// abandoned mid-flight, instruction fetches — and stops with several miss
// registers occupied (demand and prefetch, some already filled and held
// for replay) and TLB holds live.
func goldenHierarchy(t testing.TB) *Hierarchy {
	t.Helper()
	p := DefaultParams()
	p.L1ISize, p.L1DSize, p.L2Size = 1<<10, 1<<10, 4<<10
	p.TLBEntries = 4
	p.Prefetch = PrefetchNextLine
	h, err := NewHierarchy(p)
	if err != nil {
		t.Fatal(err)
	}
	now, x := int64(0), uint32(12345)
	for i := 0; i < 600; i++ {
		x = x*1664525 + 1013904223
		addr := 0x4000_0000 + ((x>>8)%(24<<10))&^3
		r := h.AccessData(addr, i%5 == 0, 0x1000+uint32(i%7)*4, now)
		switch {
		case r.Hit:
			now++
		case i%3 != 0 && r.FillAt > now:
			// Replay at the fill, as the core does.
			now = r.FillAt
			h.AccessData(addr, i%5 == 0, 0x1000+uint32(i%7)*4, now)
			now++
		default:
			// Abandon the miss: its register stays occupied.
			now += int64(1 + i%4)
		}
		if i%11 == 0 {
			if ready, miss := h.FetchInst(0x0100_0000+uint32(i%97)*16, now); miss {
				now = ready
			}
		}
	}
	return h
}

// TestSaveStateGolden pins the checkpoint bytes of a hierarchy with
// occupied miss registers to the bytes the map-based implementation
// wrote: the sorted miss-register file is a representation change only,
// so the format — and the codec version — must not move.
// Regenerate (only with a codec version bump) with UPDATE_CACHE_GOLDEN=1.
func TestSaveStateGolden(t *testing.T) {
	h := goldenHierarchy(t)
	misses := h.OutstandingMisses()
	if len(misses) < 3 || h.prefetchOutstanding < 1 || h.prefetchOutstanding == len(misses) {
		t.Fatalf("scenario too thin: %d outstanding, %d prefetches", len(misses), h.prefetchOutstanding)
	}
	w := snapshot.NewWriter()
	h.SaveState(w)
	got := w.Bytes()

	path := filepath.Join("testdata", "hierarchy_savestate.golden")
	if os.Getenv("UPDATE_CACHE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_CACHE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SaveState bytes moved: got %d bytes (hash %#x), golden %d bytes (hash %#x)",
			len(got), snapshot.StateHash(got), len(want), snapshot.StateHash(want))
	}

	// And the bytes restore into an identical hierarchy.
	h2, err := NewHierarchy(h.P)
	if err != nil {
		t.Fatal(err)
	}
	r := snapshot.NewReader(want)
	h2.RestoreState(r)
	if err := snapshot.Finish(r); err != nil {
		t.Fatal(err)
	}
	if h2.Hash() != h.Hash() {
		t.Fatal("restored hierarchy hashes differently")
	}
	if err := h2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// checkFile fails the test, naming the operation, if the file is out of
// order or its cached earliest fill is wrong.
func checkFile(t *testing.T, label string, f *mshrFile) {
	t.Helper()
	if err := f.check(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func TestMSHRFileInsertRemove(t *testing.T) {
	type op struct {
		remove bool
		line   uint32
		fill   int64
	}
	ins := func(line uint32, fill int64) op { return op{line: line, fill: fill} }
	rem := func(line uint32) op { return op{remove: true, line: line} }
	for _, c := range []struct {
		name         string
		ops          []op
		wantLines    []uint32
		wantEarliest int64
	}{
		{"empty", nil, nil, noFill},
		{"ascending inserts", []op{ins(1, 50), ins(2, 40), ins(3, 60)}, []uint32{1, 2, 3}, 40},
		{"descending inserts", []op{ins(9, 50), ins(5, 70), ins(2, 60)}, []uint32{2, 5, 9}, 50},
		{"insert in the middle", []op{ins(1, 10), ins(9, 20), ins(5, 5)}, []uint32{1, 5, 9}, 5},
		{"remove the earliest", []op{ins(1, 50), ins(2, 40), ins(3, 60), rem(2)}, []uint32{1, 3}, 50},
		{"remove a later one", []op{ins(1, 50), ins(2, 40), ins(3, 60), rem(3)}, []uint32{1, 2}, 40},
		{"two share the earliest fill", []op{ins(1, 40), ins(2, 40), ins(3, 60), rem(1)}, []uint32{2, 3}, 40},
		{"drained", []op{ins(7, 40), ins(3, 30), rem(7), rem(3)}, nil, noFill},
		{"refilled after draining", []op{ins(7, 40), rem(7), ins(4, 90)}, []uint32{4}, 90},
		{"beyond the preallocation", []op{ins(6, 6), ins(5, 5), ins(4, 4), ins(3, 3), ins(2, 2), ins(1, 1), rem(1)},
			[]uint32{2, 3, 4, 5, 6}, 2},
	} {
		f := newMSHRFile(4)
		for i, o := range c.ops {
			slot, found := f.find(o.line)
			switch {
			case o.remove && !found:
				t.Fatalf("%s: op %d removes absent line %#x", c.name, i, o.line)
			case o.remove:
				f.removeAt(slot)
			case found:
				t.Fatalf("%s: op %d inserts present line %#x", c.name, i, o.line)
			default:
				f.insertAt(slot, pendingFill{line: o.line, fill: o.fill})
			}
			checkFile(t, fmt.Sprintf("%s after op %d", c.name, i), &f)
		}
		var lines []uint32
		for _, pf := range f.e {
			lines = append(lines, pf.line)
		}
		if !slices.Equal(lines, c.wantLines) || f.earliest != c.wantEarliest {
			t.Errorf("%s: lines %v earliest %d, want %v %d", c.name, lines, f.earliest, c.wantLines, c.wantEarliest)
		}
	}
}

// pend puts a fill straight into the hierarchy's file, as a miss or a
// prefetch would.
func pend(h *Hierarchy, line uint32, fill int64, prefetch bool) {
	slot, _ := h.pending.find(line)
	h.pending.insertAt(slot, pendingFill{line: line, fill: fill, prefetch: prefetch})
	if prefetch {
		h.prefetchOutstanding++
	}
}

// TestSameCycleFillsInstallInLineOrder: fills that become ready together
// install in ascending line order whatever order they were started in.
// The three ready lines conflict in one primary-cache set, so the order is
// visible twice: in the fill events, and in which line survives.
func TestSameCycleFillsInstallInLineOrder(t *testing.T) {
	for _, started := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}} {
		h := newH(t)
		sink := metrics.NewSink(0, 64)
		h.obsSink = sink
		sets := uint32(h.L1D.Sets())
		lines := []uint32{0x40 + 0*sets, 0x40 + 1*sets, 0x40 + 2*sets}
		for _, k := range started {
			pend(h, lines[k], 100, k == 1)
		}
		pend(h, 0x77, 180, false) // not due yet
		h.DrainFills(100)
		sink.Flush()

		var filled []uint32
		for _, ev := range sink.Events() {
			if ev.Kind == metrics.KindMissFill {
				filled = append(filled, ev.Addr>>uint32(h.L1D.lineShift))
			}
		}
		if !slices.Equal(filled, lines) {
			t.Errorf("started %v: fills installed in order %#x, want %#x", started, filled, lines)
		}
		for k, line := range lines {
			if got, want := h.L1D.Present(line<<uint32(h.L1D.lineShift)), k == 2; got != want {
				t.Errorf("started %v: line %#x resident = %v, want %v (the highest line installs last)", started, line, got, want)
			}
		}
		if len(h.pending.e) != 1 || h.pending.e[0].line != 0x77 || h.pending.earliest != 180 || h.prefetchOutstanding != 0 {
			t.Errorf("started %v: left %+v earliest %d prefetches %d, want only line 0x77 due at 180",
				started, h.pending.e, h.pending.earliest, h.prefetchOutstanding)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Errorf("started %v: %v", started, err)
		}
	}
}

// TestExpireHoldsWhatDrainInstalls: the access path holds a landed fill
// for its replay for fillHoldCycles; the slice-boundary drain does not.
func TestExpireHoldsWhatDrainInstalls(t *testing.T) {
	const fill = 100
	for _, c := range []struct {
		name      string
		settle    func(h *Hierarchy, now int64)
		now       int64
		installed bool
	}{
		{"drain before the fill", (*Hierarchy).DrainFills, fill - 1, false},
		{"drain at the fill", (*Hierarchy).DrainFills, fill, true},
		{"expire at the fill", (*Hierarchy).expireFills, fill, false},
		{"expire one cycle short of the hold", (*Hierarchy).expireFills, fill + fillHoldCycles - 1, false},
		{"expire when the hold runs out", (*Hierarchy).expireFills, fill + fillHoldCycles, true},
	} {
		h := newH(t)
		pend(h, 0x40, fill, false)
		pend(h, 0x41, fill+1000, false)
		c.settle(h, c.now)
		if got := h.L1D.Present(0x40 << uint32(h.L1D.lineShift)); got != c.installed {
			t.Errorf("%s: installed = %v, want %v", c.name, got, c.installed)
		}
		wantLeft, wantEarliest := 2, int64(fill)
		if c.installed {
			wantLeft, wantEarliest = 1, fill+1000
		}
		if len(h.pending.e) != wantLeft || h.pending.earliest != wantEarliest {
			t.Errorf("%s: %d entries left, earliest %d; want %d, %d",
				c.name, len(h.pending.e), h.pending.earliest, wantLeft, wantEarliest)
		}
	}
	// An empty file's "no fill" sentinel survives the grace arithmetic.
	h := newH(t)
	h.expireFills(0)
	h.DrainFills(math.MaxInt64)
	if len(h.pending.e) != 0 || h.pending.earliest != noFill {
		t.Errorf("settling an empty file left %+v, earliest %d", h.pending.e, h.pending.earliest)
	}
}

// missHierarchy returns a hierarchy (with the given prefetcher) whose TLB
// already maps the test pages and whose caches are empty, so every first
// touch is a clean memory miss.
func missHierarchy(t *testing.T, mode PrefetchMode, pages ...uint32) (*Hierarchy, int64) {
	t.Helper()
	p := DefaultParams()
	p.Prefetch = mode
	h, err := NewHierarchy(p)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for _, a := range pages {
		now = warm(h, a, now)
	}
	h.DrainFills(now + 10_000)
	h.L1D.InvalidateAll()
	h.L2.InvalidateAll()
	h.prefetch.issued = make(map[uint32]bool)
	return h, now + 10_000
}

// earliestOutstanding is the reference for the cached earliest fill and
// for the MSHR-full answer: the minimum fill over every outstanding entry,
// demand or prefetch, which is what the map-based hierarchy rescanned for.
func earliestOutstanding(h *Hierarchy) int64 {
	best := int64(noFill)
	for _, m := range h.OutstandingMisses() {
		if m.FillAt < best {
			best = m.FillAt
		}
	}
	return best
}

// TestEarliestFillAcrossAccessPaths follows the cached earliest fill
// through the access path's own events: miss start, merge, replay served
// from the register, and prefetch insertion.
func TestEarliestFillAcrossAccessPaths(t *testing.T) {
	check := func(h *Hierarchy, label string, wantLines ...uint32) {
		t.Helper()
		checkFile(t, label, &h.pending)
		var lines []uint32
		for _, m := range h.OutstandingMisses() {
			lines = append(lines, m.Line)
		}
		if !slices.Equal(lines, wantLines) {
			t.Fatalf("%s: outstanding lines %#x, want %#x", label, lines, wantLines)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	const a, b = 0x10_2000, 0x10_1000 // b's line sorts before a's
	la, lb := uint32(a>>5), uint32(b>>5)

	h, now := missHierarchy(t, PrefetchOff, a, b)
	ra := h.AccessData(a, false, 0, now)
	check(h, "first miss", la)
	rb := h.AccessData(b, false, 0, now+1)
	check(h, "second miss", lb, la)
	if ra.Hit || rb.Hit || rb.FillAt <= ra.FillAt || h.pending.earliest != ra.FillAt {
		t.Fatalf("misses %+v %+v, cached earliest %d", ra, rb, h.pending.earliest)
	}
	if rm := h.AccessData(a+4, true, 0, now+2); rm.Hit || rm.FillAt != ra.FillAt || rm.Class != memsys.MSHRFull {
		t.Fatalf("merge = %+v, want the first miss's fill %d", rm, ra.FillAt)
	}
	check(h, "merge", lb, la)
	if h.pending.earliest != ra.FillAt {
		t.Fatalf("merge moved the earliest fill to %d", h.pending.earliest)
	}
	if rr := h.AccessData(a, false, 0, ra.FillAt); !rr.Hit {
		t.Fatalf("replay at the fill = %+v, want a hit served from the register", rr)
	}
	check(h, "replay served", lb)
	if h.pending.earliest != rb.FillAt {
		t.Fatalf("after the earliest was served: cached earliest %d, want %d", h.pending.earliest, rb.FillAt)
	}
	if rr := h.AccessData(b, false, 0, rb.FillAt); !rr.Hit || h.pending.earliest != noFill {
		t.Fatalf("last replay = %+v, cached earliest %d, want a hit and an empty file", rr, h.pending.earliest)
	}
	check(h, "all served")

	// Next-line prefetch: a miss files its follower too, in line order,
	// and the prefetch counts toward the earliest fill.
	h, now = missHierarchy(t, PrefetchNextLine, a, b)
	ra = h.AccessData(a, false, 0, now)
	check(h, "miss + prefetch", la, la+1)
	if h.prefetchOutstanding != 1 || !h.pending.e[1].prefetch || h.pending.earliest != ra.FillAt {
		t.Fatalf("after prefetching miss: %+v earliest %d", h.pending.e, h.pending.earliest)
	}
	h.AccessData(b, false, 0, now+1)
	check(h, "second miss + prefetch", lb, lb+1, la, la+1)
	if got, want := h.NextCompletion(now), ra.FillAt; got != want {
		t.Fatalf("NextCompletion(%d) = %d, want %d", now, got, want)
	}
	// Past the first fill (which is held for its replay) NextCompletion
	// looks beyond it.
	if got, want := h.NextCompletion(ra.FillAt), h.pending.e[3].fill; got != want {
		t.Fatalf("NextCompletion(%d) = %d, want the prefetch's fill %d", ra.FillAt, got, want)
	}
	if got := h.NextCompletion(math.MaxInt64 - 1); got != math.MaxInt64 {
		t.Fatalf("NextCompletion past every fill = %d, want MaxInt64", got)
	}
}

// TestMSHRFullFillAt: with every demand register busy, the retry time is
// the earliest outstanding fill — demand or prefetch, landed or not —
// exactly what the map-based hierarchy computed by scanning.
func TestMSHRFullFillAt(t *testing.T) {
	pages := []uint32{0x10_0000, 0x10_1000, 0x10_2000, 0x10_3000, 0x10_4000}
	for _, c := range []struct {
		name  string
		mode  PrefetchMode
		delay int64 // how long after the misses the rejected access comes
	}{
		{"in flight", PrefetchOff, 3},
		{"in flight, prefetching", PrefetchNextLine, 3},
		{"first fill landed and held", PrefetchOff, 120},
		{"first fill landed and held, prefetching", PrefetchNextLine, 120},
	} {
		h, now := missHierarchy(t, c.mode, pages...)
		for i, a := range pages[:4] {
			if r := h.AccessData(a, false, 0, now+int64(i)); r.Hit || r.Class == memsys.MSHRFull {
				t.Fatalf("%s: miss %d = %+v", c.name, i, r)
			}
		}
		want := earliestOutstanding(h)
		before := h.Stats.DataByClass[memsys.MSHRFull]
		r := h.AccessData(pages[4], false, 0, now+c.delay)
		if r.Hit || r.Class != memsys.MSHRFull || r.FillAt != want {
			t.Errorf("%s: rejected access = %+v, want MSHR-full retrying at %d", c.name, r, want)
		}
		if c.delay > 100 && r.FillAt > now+c.delay {
			t.Errorf("%s: scenario broken: earliest fill %d has not landed by %d", c.name, r.FillAt, now+c.delay)
		}
		if h.Stats.DataByClass[memsys.MSHRFull] != before+1 {
			t.Errorf("%s: MSHR-full not counted", c.name)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// accessStream is one steady-state reference stream: the address of the
// i-th reference, over a hierarchy scaled so the stream stays on the named
// path. A reference is performed the way the core performs it: the access,
// and on a miss the replay at the fill time.
type accessStream struct {
	name  string
	addr  func(i int) uint32
	class memsys.MissClass // what (nearly) every reference must be classed as
}

// streamParams scales the hierarchy down so a 256 KiB sweep (64 pages: the
// TLB's reach, so the sweep never refills it) overflows the secondary
// cache four times over.
func streamParams() Params {
	p := DefaultParams()
	p.L1DSize, p.L2Size = 16<<10, 64<<10
	return p
}

func accessStreams() []accessStream {
	p := streamParams()
	const base = 0x4000_0000
	return []accessStream{
		{"l1hit", func(i int) uint32 { return base + uint32(i%64)*4 }, memsys.HitL1},
		// Two lines that conflict in the primary cache and coexist in
		// the secondary.
		{"l2hit", func(i int) uint32 { return base + uint32(i%2)*uint32(p.L1DSize) }, memsys.HitL2},
		// A cyclic sweep over four times the secondary cache.
		{"mem", func(i int) uint32 { return base + uint32(i%(256<<10/p.LineSize))*uint32(p.LineSize) }, memsys.Memory},
	}
}

// reference performs the i-th reference of a stream at cycle now and
// returns the cycle after it completes.
func (s accessStream) reference(h *Hierarchy, i int, now int64) int64 {
	addr, write := s.addr(i), i%4 == 3
	r := h.AccessData(addr, write, 0x1000, now)
	if !r.Hit {
		if r.FillAt > now {
			now = r.FillAt
		}
		h.AccessData(addr, write, 0x1000, now)
	}
	return now + 1
}

// warmStream runs a stream until it is in steady state: TLB filled, the
// sweep once around.
func warmStream(tb testing.TB, s accessStream) (h *Hierarchy, i int, now int64) {
	tb.Helper()
	h, err := NewHierarchy(streamParams())
	if err != nil {
		tb.Fatal(err)
	}
	for ; i < 3*(256<<10/h.P.LineSize); i++ {
		now = s.reference(h, i, now)
	}
	return h, i, now
}

// TestAccessPathsDoNotAllocate: with the miss registers in a fixed file
// (no per-access ready slice, no map iteration), the steady-state access
// paths allocate nothing with observability detached.
func TestAccessPathsDoNotAllocate(t *testing.T) {
	for _, s := range accessStreams() {
		h, i, now := warmStream(t, s)
		before := h.Stats
		const runs = 2000
		allocs := testing.AllocsPerRun(runs, func() {
			now = s.reference(h, i, now)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per reference, want 0", s.name, allocs)
		}
		// The stream must really have been on its path (AllocsPerRun
		// adds one warm-up call).
		if got := h.Stats.DataByClass[s.class] - before.DataByClass[s.class]; got < runs {
			t.Errorf("%s: only %d of %d references were classed %v", s.name, got, runs, s.class)
		}
		if got := h.Stats.DataByClass[memsys.TLBMiss] - before.DataByClass[memsys.TLBMiss]; got != 0 {
			t.Errorf("%s: %d TLB misses in steady state", s.name, got)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}

	h, err := NewHierarchy(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(i int) { h.FetchInst(0x0100_0000+uint32(i%256)*4, int64(i)) }
	for i := 0; i < 512; i++ {
		fetch(i)
	}
	i := 512
	if allocs := testing.AllocsPerRun(2000, func() { fetch(i); i++ }); allocs != 0 {
		t.Errorf("FetchInst: %v allocations per fetch, want 0", allocs)
	}
}

// BenchmarkHierarchyAccess times one data reference (access plus, on a
// miss, its replay) on each steady-state path: the go-test number beside
// the repository benchmark's cache.* probes.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, s := range accessStreams() {
		b.Run(s.name, func(b *testing.B) {
			h, i, now := warmStream(b, s)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				now = s.reference(h, i, now)
				i++
			}
		})
	}
}

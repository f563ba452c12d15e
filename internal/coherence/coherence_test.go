package coherence

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/memsys"
	"repro/internal/snapshot"
)

func newFab(t *testing.T, nodes int) *Fabric {
	t.Helper()
	f, err := NewFabric(DefaultParams(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// settle replays an access until it hits, as the core does.
func settle(n *Node, addr uint32, write bool, now int64) int64 {
	for i := 0; i < 64; i++ {
		r := n.AccessData(addr, write, 0, now)
		if r.Hit {
			return now + 1
		}
		if r.FillAt > now {
			now = r.FillAt
		} else {
			now++
		}
	}
	panic("settle: access never hit")
}

func TestMissClassification(t *testing.T) {
	f := newFab(t, 4)
	p := f.P

	// Line 0 is homed at node 0: local for node 0, remote for node 1.
	addr := uint32(0)
	r := f.Node(0).AccessData(addr, false, 0, 0)
	if r.Hit || r.Class != memsys.LocalMem {
		t.Fatalf("node0 cold access = %+v, want local miss", r)
	}
	if d := r.FillAt; d < int64(p.LocalLow) || d > int64(p.LocalHigh) {
		t.Errorf("local latency %d outside [%d,%d]", d, p.LocalLow, p.LocalHigh)
	}

	// Same line from node 1: remote memory (node 0 only has it shared).
	r = f.Node(1).AccessData(addr, false, 0, 0)
	if r.Class != memsys.RemoteMem {
		t.Fatalf("node1 class = %v, want remote", r.Class)
	}
	if d := r.FillAt; d < int64(p.RemoteLow) || d > int64(p.RemoteHigh) {
		t.Errorf("remote latency %d outside [%d,%d]", d, p.RemoteLow, p.RemoteHigh)
	}
}

func TestDirtyRemoteClass(t *testing.T) {
	f := newFab(t, 4)
	now := settle(f.Node(2), 0x100, true, 0) // node 2 owns dirty
	r := f.Node(1).AccessData(0x100, false, 0, now)
	if r.Class != memsys.RemoteCache {
		t.Fatalf("read of remotely-dirty line class = %v, want remote-cache", r.Class)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	f := newFab(t, 4)
	now := int64(0)
	// All four nodes read line 0x200.
	for i := 0; i < 4; i++ {
		now = settle(f.Node(i), 0x200, false, now)
	}
	for i := 0; i < 4; i++ {
		if !f.Node(i).cache.Present(0x200) {
			t.Fatalf("node %d lost its shared copy", i)
		}
	}
	// Node 3 writes: everyone else must be invalidated.
	now = settle(f.Node(3), 0x200, true, now)
	for i := 0; i < 3; i++ {
		if f.Node(i).cache.Present(0x200) {
			t.Errorf("node %d still has a copy after invalidation", i)
		}
		if f.Node(i).Stats.Invalidations == 0 {
			t.Errorf("node %d did not record its invalidation", i)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWriteAfterSharedIsUpgrade(t *testing.T) {
	f := newFab(t, 2)
	n := f.Node(0)
	now := settle(n, 0x300, false, 0) // shared copy
	r := n.AccessData(0x300, true, 0, now)
	if r.Hit {
		t.Fatal("upgrade must not be a free hit")
	}
	if n.Stats.Upgrades != 1 {
		t.Errorf("upgrades = %d, want 1", n.Stats.Upgrades)
	}
	now = settle(n, 0x300, true, now)
	if !n.cache.Dirty(0x300) {
		t.Error("line not dirty after upgrade completes")
	}
}

func TestOwnershipPingPong(t *testing.T) {
	// Two nodes alternately writing one line: every round trips through
	// the remote-cache path and both must always make progress.
	f := newFab(t, 2)
	now := int64(0)
	for round := 0; round < 10; round++ {
		now = settle(f.Node(round%2), 0x400, true, now)
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %s", round, err)
		}
	}
	a := f.Node(0).Stats.ByClass[memsys.RemoteCache] + f.Node(1).Stats.ByClass[memsys.RemoteCache]
	if a < 8 {
		t.Errorf("remote-cache transfers = %d, want >= 8", a)
	}
}

func TestInFlightInvalidation(t *testing.T) {
	// Node 0 has a read miss in flight when node 1 writes the line: the
	// stale fill must not be installed; node 0's replay re-requests.
	f := newFab(t, 2)
	r0 := f.Node(0).AccessData(0x500, false, 0, 0)
	if r0.Hit {
		t.Fatal("expected miss")
	}
	settle(f.Node(1), 0x500, true, 1)
	// Node 0 replays at its (now cancelled) fill time.
	r := f.Node(0).AccessData(0x500, false, 0, r0.FillAt)
	if r.Hit {
		t.Fatal("stale in-flight fill served after invalidation")
	}
	if r.Class != memsys.RemoteCache {
		t.Errorf("re-request class = %v, want remote-cache", r.Class)
	}
}

func TestEvictionUpdatesDirectory(t *testing.T) {
	f := newFab(t, 2)
	n := f.Node(0)
	now := settle(n, 0x600, true, 0)
	// Fill a conflicting line (same set: cache size apart).
	conflict := uint32(0x600) + uint32(f.P.CacheSize)
	now = settle(n, conflict, false, now)
	if n.cache.Present(0x600) {
		t.Fatal("victim still resident")
	}
	// The directory must no longer consider node 0 the owner: node 1's
	// read should be a plain memory access, not a cache transfer.
	r := f.Node(1).AccessData(0x600, false, 0, now)
	if r.Class == memsys.RemoteCache {
		t.Error("directory still records evicted owner")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFabricValidation(t *testing.T) {
	if _, err := NewFabric(DefaultParams(), 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewFabric(DefaultParams(), 65); err == nil {
		t.Error("65 nodes accepted (sharer bitmask is 64-wide)")
	}
	bad := DefaultParams()
	bad.LocalLow = 50
	bad.LocalHigh = 10
	if _, err := NewFabric(bad, 2); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestIdealInstCache(t *testing.T) {
	f := newFab(t, 2)
	ready, miss := f.Node(0).FetchInst(0x123400, 77)
	if miss || ready != 77 {
		t.Error("MP instruction cache must be ideal")
	}
}

// A node whose upgrade of a line is in flight can evict the line's old
// shared copy, when another of its fills lands in the same set. Ownership
// moved to the upgrade when it was issued; the eviction must not hand it
// back to the directory, or the protocol runs with an exclusive request
// in flight for a line nobody owns.
func TestEvictionDuringUpgradeKeepsOwnership(t *testing.T) {
	f := newFab(t, 4)
	n := f.Node(0)
	a := uint32(0x100)
	b := a + uint32(f.P.CacheSize) // same direct-mapped set as a
	now := settle(n, a, false, 0)  // a resident, shared
	r := n.AccessData(b, false, 0, now)
	if r.Hit {
		t.Fatalf("cold read of %#x hit", b)
	}
	// Upgrade a one cycle before b's fill lands; b's install then evicts
	// the shared copy of a while the upgrade is still in flight.
	if up := n.AccessData(a, true, 0, r.FillAt-1); up.Hit || up.FillAt <= r.FillAt {
		t.Fatalf("upgrade of %#x = %+v, want a miss landing after %d", a, up, r.FillAt)
	}
	if got := n.AccessData(b, false, 0, r.FillAt); !got.Hit {
		t.Fatalf("read of %#x at its fill = %+v, want a hit", b, got)
	}
	if n.cache.Present(a) {
		t.Fatalf("%#x still resident; the test needs its eviction", a)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("after the eviction: %v", err)
	}
	settle(n, a, true, r.FillAt)
	if e := f.peekEntry(a / uint32(f.P.LineSize)); e == nil || e.owner != 0 {
		t.Errorf("after the upgrade completes, the directory owner is not node 0: %+v", e)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Errorf("after the upgrade: %v", err)
	}
}

// The directory entry's count of exclusive requests in flight follows the
// miss registers — a write miss adds one, its fill's service or its
// expiry takes it away, a restore rebuilds it — and the invariant check
// holds it to them: a corrupted count is a typed violation.
func TestWritesInFlightAreCounted(t *testing.T) {
	f := newFab(t, 2)
	n0, n1 := f.Node(0), f.Node(1)
	a, b := uint32(0x100), uint32(0x2000)
	count := func(what string, f *Fabric, addr uint32, want int32) {
		t.Helper()
		if got := f.peekEntry(addr / uint32(f.P.LineSize)).writes; got != want {
			t.Errorf("%s: %d writes counted in flight for %#x, want %d", what, got, addr, want)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}

	r := n0.AccessData(a, true, 0, 0)
	count("write miss", f, a, 1)
	if d := n1.AccessData(a, false, 0, 1); d.Hit || n1.Stats.Deferred != 1 {
		t.Errorf("a read of a line with a write in flight = %+v, %d deferred; want it deferred", d, n1.Stats.Deferred)
	}
	count("deferred read", f, a, 1)

	w := snapshot.NewWriter()
	f.SaveState(w)
	g := newFab(t, 2)
	rd := snapshot.NewReader(w.Bytes())
	g.RestoreState(rd)
	if err := snapshot.Finish(rd); err != nil {
		t.Fatal(err)
	}
	count("restored", g, a, 1)

	if got := n0.AccessData(a, true, 0, r.FillAt); !got.Hit {
		t.Fatalf("the write's replay at its fill = %+v, want a hit", got)
	}
	count("served", f, a, 0)

	r = n0.AccessData(b, true, 0, r.FillAt+1)
	count("second write miss", f, b, 1)
	n0.AccessData(a, false, 0, r.FillAt+fillHoldCycles) // expires b's abandoned fill
	count("expired", f, b, 0)

	f.peekEntry(a/uint32(f.P.LineSize)).writes++
	err := f.CheckInvariants()
	var se *guard.SimError
	if !errors.As(err, &se) || se.Op != "coherence.invariant" || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("a corrupted count: CheckInvariants = %v, want a coherence.invariant violation", err)
	}
}

// The invariant check holds the directory to the caches: each corrupted
// entry of a line two nodes share is a typed violation naming the fault.
func TestCheckInvariantsCatchesDirectoryCorruption(t *testing.T) {
	for _, tc := range []struct {
		want    string
		corrupt func(e *dirEntry)
	}{
		{"not a node", func(e *dirEntry) { e.owner = 5 }},
		{"dirty owner 0 with sharers", func(e *dirEntry) { e.owner = 0 }},
		{"node 1 resident but not in directory", func(e *dirEntry) { e.sharers &^= 1 << 1 }},
	} {
		f := newFab(t, 2)
		a := uint32(0x100)
		settle(f.Node(1), a, false, settle(f.Node(0), a, false, 0))
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("before corrupting: %v", err)
		}
		tc.corrupt(f.peekEntry(a / uint32(f.P.LineSize)))
		err := f.CheckInvariants()
		var se *guard.SimError
		if !errors.As(err, &se) || se.Op != "coherence.invariant" || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CheckInvariants = %v, want a coherence.invariant violation containing %q", err, tc.want)
		}
	}
}

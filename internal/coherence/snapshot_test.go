package coherence

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/guard"
	"repro/internal/snapshot"
)

// chaosFabric is a fresh 4-node fabric with chaos on.
func chaosFabric(t *testing.T) *Fabric {
	t.Helper()
	p := DefaultParams()
	p.Chaos = guard.NewChaos(42, 2)
	f, err := NewFabric(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// goldenFabric drives a fixed traffic pattern through a chaosFabric, and
// leaves in its state walk: settled shared and owned lines, a remote
// read that downgraded an owner, pending read and write fills, and chaos
// draws.
func goldenFabric(t *testing.T) *Fabric {
	t.Helper()
	f := chaosFabric(t)
	now := int64(0)
	for i := uint32(0); i < 16; i++ {
		n := f.Node(int(i % 4))
		now = settle(n, i*0x440, i%3 == 0, now)
	}
	now = settle(f.Node(1), 0, false, now) // downgrades node 0's line 0
	f.Node(2).AccessData(0x9000, true, 0, now)
	f.Node(3).AccessData(0x9400, false, 0, now)
	f.Node(0).AccessData(0x9800, false, 0, now+1)
	return f
}

// TestSaveStateGolden pins the fabric's state walk bytes (length and
// StateHash) after goldenFabric's traffic. Regenerate (only with a codec
// version bump) with UPDATE_COHERENCE_GOLDEN=1.
func TestSaveStateGolden(t *testing.T) {
	f := goldenFabric(t)
	owned, pending := 0, 0
	for _, pg := range f.dir {
		for _, e := range pg {
			if e.owner >= 0 {
				owned++
			}
		}
	}
	for _, n := range f.nodes {
		pending += len(n.pending)
	}
	if owned == 0 || pending < 3 || f.P.Chaos.Draws == 0 {
		t.Fatalf("scenario too thin: %d owned lines, %d pending fills, %d chaos draws", owned, pending, f.P.Chaos.Draws)
	}
	w := snapshot.NewWriter()
	f.SaveState(w)
	got := fmt.Sprintf("4 nodes len=%d hash=%#016x\n", len(w.Bytes()), snapshot.StateHash(w.Bytes()))

	path := filepath.Join("testdata", "fabric_savestate.golden")
	if os.Getenv("UPDATE_COHERENCE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_COHERENCE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("SaveState bytes moved:\n got: %swant: %s", got, want)
	}

	// And the bytes restore into an identical fabric.
	g := chaosFabric(t)
	r := snapshot.NewReader(w.Bytes())
	g.RestoreState(r)
	if err := snapshot.Finish(r); err != nil {
		t.Fatal(err)
	}
	if g.Hash() != f.Hash() {
		t.Fatal("restored fabric hashes differently")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

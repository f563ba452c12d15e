package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/workstation"
)

// TestSweepForkedMatchesScratch pins the planner's core guarantee: a
// sweep run with warm-up forking produces results byte-identical to the
// same sweep with every cell simulated from scratch.
func TestSweepForkedMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	for _, tc := range []struct {
		name string
		run  func(UniConfig) (*SweepResult, error)
	}{
		{"switch-cost", func(c UniConfig) (*SweepResult, error) { return SwitchCostSweepCtx(context.Background(), c, "DC") }},
		{"mshr", func(c UniConfig) (*SweepResult, error) { return MSHRSweepCtx(context.Background(), c, "DC") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forked, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			scratch := cfg
			scratch.Checkpoint.Disabled = true
			want, err := tc.run(scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(forked, want) {
				t.Errorf("forked sweep diverges from scratch:\n got %+v\nwant %+v", forked, want)
			}
		})
	}
}

// TestSweepCheckpointDir pins the on-disk cache: a sweep persists its
// prefix checkpoints, a second run reuses them, and a run that finds
// every cached file unusable re-simulates the warm-ups, gives identical
// results and puts the files back.
func TestSweepCheckpointDir(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	cfg.Checkpoint.Dir = t.TempDir()

	want, err := SwitchCostSweepCtx(context.Background(), cfg, "DC")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(cfg.Checkpoint.Dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files persisted (err=%v)", err)
	}

	// Second run: warm-ups load from disk instead of re-simulating.
	got, err := SwitchCostSweepCtx(context.Background(), cfg, "DC")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("disk-cached sweep diverges from the run that wrote the cache")
	}

	// Two ways a cached file can be unusable, and the same demands of
	// both: the sweep neither fails nor changes its results, and it
	// replaces each bad file with the bytes it held before, so the next
	// run forks from disk again instead of rejecting the same file
	// forever. A flipped byte fails the container's checksum when the
	// file is opened; a sound container around a payload that is not a
	// machine opens, and is rejected by the first fork that reads it.
	orig := map[string][]byte{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		orig[f] = data
	}
	for _, tc := range []struct {
		name   string
		poison func(key string, good []byte) []byte
	}{
		{"flipped byte", func(_ string, good []byte) []byte {
			bad := bytes.Clone(good)
			bad[len(bad)/2] ^= 0x40
			return bad
		}},
		{"payload not a machine", func(key string, _ []byte) []byte {
			return snapshot.Encode(workstation.Kind, key, []byte("not a machine"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range files {
				key := strings.TrimSuffix(filepath.Base(f), ".ckpt")
				if err := os.WriteFile(f, tc.poison(key, orig[f]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := SwitchCostSweepCtx(context.Background(), cfg, "DC")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("sweep over unusable checkpoints diverges from the clean run")
			}
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, orig[f]) {
					t.Errorf("%s was not restored to its pre-corruption bytes (%d bytes on disk)", filepath.Base(f), len(data))
				}
			}
		})
	}
}

// TestPrefixKeyGrouping: cells differing only in measurement-time
// overrides share a key; structural differences split it; the codec
// version is part of the key.
func TestPrefixKeyGrouping(t *testing.T) {
	base := workstation.DefaultConfig(core.Blocked, 4)
	a := base
	a.Measure.BlockedFlushCost = 1
	b := base
	b.Measure.BlockedFlushCost = 9
	if prefixKey("DC", a) != prefixKey("DC", b) {
		t.Error("cells differing only in Measure overrides should share a prefix key")
	}
	c := workstation.DefaultConfig(core.Blocked, 2)
	if prefixKey("DC", base) == prefixKey("DC", c) {
		t.Error("different context counts must not share a prefix key")
	}
	if prefixKey("DC", base) == prefixKey("EC", base) {
		t.Error("different workloads must not share a prefix key")
	}
}

// TestFingerprintCheckpointStamp: enabling/disabling forking is part of
// the journal fingerprint, so -resume cannot mix the two regimes.
func TestFingerprintCheckpointStamp(t *testing.T) {
	on := QuickUniConfig()
	off := QuickUniConfig()
	off.Checkpoint.Disabled = true
	fpOn := NewFingerprint(&on, nil, nil)
	fpOff := NewFingerprint(&off, nil, nil)
	if fpOn.Checkpoint == nil {
		t.Fatal("forking-enabled fingerprint missing the checkpoint stamp")
	}
	if fpOff.Checkpoint != nil {
		t.Fatal("forking-disabled fingerprint carries a checkpoint stamp")
	}
	if fpOn.Hash() == fpOff.Hash() {
		t.Error("checkpoint stamp does not change the fingerprint hash")
	}
	// The cache directory is wall-clock plumbing, not config identity.
	dir := on
	dir.Checkpoint.Dir = t.TempDir()
	if NewFingerprint(&dir, nil, nil).Hash() != fpOn.Hash() {
		t.Error("checkpoint directory leaked into the fingerprint hash")
	}
}

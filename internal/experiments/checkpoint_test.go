package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workstation"
)

// TestSweepForkedMatchesScratch pins the planner's core guarantee: a
// sweep run with warm-up forking produces results byte-identical to the
// same sweep with every cell simulated from scratch. It also counts the
// forks, so a planner that silently falls back to scratch fails here.
func TestSweepForkedMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	for _, tc := range []struct {
		name  string
		run   func(UniConfig) (*SweepResult, error)
		forks int64
	}{
		{"switch-cost", func(c UniConfig) (*SweepResult, error) { return SwitchCostSweepCtx(context.Background(), c, "DC") }, 10},
		{"mshr", func(c UniConfig) (*SweepResult, error) { return MSHRSweepCtx(context.Background(), c, "DC") }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sweep := func(c UniConfig) (*SweepResult, int64) {
				t.Helper()
				before := Cells()
				r, err := tc.run(c)
				if err != nil {
					t.Fatal(err)
				}
				return r, Cells().Sub(before).Forked
			}
			forked, n := sweep(cfg)
			if n != tc.forks {
				t.Errorf("forked sweep forked %d cells, want %d", n, tc.forks)
			}
			scratch := cfg
			scratch.Checkpoint.Disabled = true
			want, n := sweep(scratch)
			if n != 0 {
				t.Errorf("sweep with forking disabled forked %d cells", n)
			}
			if !reflect.DeepEqual(forked, want) {
				t.Errorf("forked sweep diverges from scratch:\n got %+v\nwant %+v", forked, want)
			}
		})
	}
}

// TestPrefixKeyGrouping: cells differing only in measurement-time
// overrides share a key; structural differences and the workload split
// it.
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

// Forking is no part of the journal fingerprint: forked and from-scratch
// cells are byte-identical, so a journal written with forking on resumes
// under -no-checkpoint, and the other way round.
func TestFingerprintIgnoresForking(t *testing.T) {
	on := QuickUniConfig()
	off := QuickUniConfig()
	off.Checkpoint.Disabled = true
	if NewFingerprint(&on, nil, nil).Hash() != NewFingerprint(&off, nil, nil).Hash() {
		t.Error("disabling forking changes the fingerprint hash")
	}
}

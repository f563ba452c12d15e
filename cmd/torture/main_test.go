package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/faultnet"
)

// Two seeds in-process — one per crash-inducing disk class family —
// keep the harness itself under tier-1 without the full CI seed set
// (scripts/check.sh runs 20).
func TestTortureSmoke(t *testing.T) {
	spec := tortureSpec()
	baseText, baseJSON, err := baseline(spec)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, seed := range []int64{1, 3} { // failed-sync and torn-write schedules
		sched := scheduleFromSeed(seed)
		fired, err := runSeed(spec, baseText, baseJSON, sched, 60*time.Second, func(string, ...any) {})
		if err != nil {
			t.Errorf("seed %d (%s): %v", seed, sched, err)
			continue
		}
		total := int64(0)
		for _, n := range fired {
			total += n
		}
		if total == 0 {
			t.Errorf("seed %d: no faults fired — the schedule was a no-op", seed)
		}
		t.Logf("seed %d: fired %s", seed, firedString(fired))
	}
}

// Every seed, negative ones included, arms exactly one disk class and all
// three transports, and the schedule is a pure function of the seed.
func TestScheduleFromSeedDeterministic(t *testing.T) {
	for seed := int64(-50); seed <= 50; seed++ {
		a, b := scheduleFromSeed(seed), scheduleFromSeed(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: schedule not a pure function of the seed:\n%s\n%s", seed, a, b)
		}
		if len(a.Disk) != 1 {
			t.Fatalf("seed %d: want exactly one disk fault armed, got %s", seed, a)
		}
		for i, p := range a.Net {
			if len(p) == 0 {
				t.Fatalf("seed %d: %s has no faults armed", seed, netNames[i])
			}
		}
	}
	if scheduleFromSeed(1).String() == scheduleFromSeed(2).String() {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

// The shrinker must strip every fault the failure does not need and
// keep every fault it does.
func TestShrinkSchedule(t *testing.T) {
	full := scheduleFromSeed(1)
	sync, okSync := full.Disk.Lookup(faultfs.FaultFailedSync)
	drop, okDrop := full.Net[0].Lookup(faultnet.FaultDrop)
	if !okSync || !okDrop {
		t.Fatalf("test premise: seed 1 arms failed-sync and a client drop, got %s", full)
	}
	// Synthetic failure: reproduces iff the disk failed-sync AND the
	// client drop are both present.
	runs := 0
	fails := func(s schedule) bool {
		runs++
		_, hasSync := s.Disk.Lookup(faultfs.FaultFailedSync)
		_, hasDrop := s.Net[0].Lookup(faultnet.FaultDrop)
		return hasSync && hasDrop
	}
	min := shrinkSchedule(full, fails)
	want := fmt.Sprintf("disk{%v} client{%v} w0{} w1{}", sync, drop)
	if min.String() != want {
		t.Fatalf("shrink kept extra faults:\n got %s\nwant %s", min, want)
	}
	// Removing one event at a time until nothing more goes costs one run
	// per event (16) plus a confirming pass over the two that stay.
	if runs >= 18 {
		t.Errorf("shrink took %d runs for 16 events; the one-at-a-time loop took 18", runs)
	}
}

// A seed count below one (without -seed) or a per-seed bound that is not
// positive is a usage error, reported before the baseline runs. A row that
// did start would run seeds for minutes, so each runs under a deadline.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "-1"},
		{"-n", "0"},
		{"-first", "7", "-n", "0"},
		{"-seed", "1", "-run-timeout", "0"},
		{"-seed", "1", "-run-timeout", "-1s"},
	} {
		code := make(chan int, 1)
		go func() { code <- run(args) }()
		select {
		case c := <-code:
			if c != experiments.ExitUsage {
				t.Errorf("torture %s: exit %d, want %d", strings.Join(args, " "), c, experiments.ExitUsage)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("torture %s: still running after 5s, want exit %d before the baseline", strings.Join(args, " "), experiments.ExitUsage)
		}
	}
}

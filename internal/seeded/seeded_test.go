package seeded_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/faultnet"
	"repro/internal/seeded"
)

// The published splitmix64 test vector (seed 0), and Next as a step of
// the golden-ratio increment followed by Mix.
func TestStreamIsSplitmix64(t *testing.T) {
	s := seeded.Stream(0)
	got := []uint64{s.Next(), s.Next(), s.Next()}
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	if !slices.Equal(got, want) {
		t.Errorf("Stream(0) = %#x, want %#x", got, want)
	}
	if seeded.Mix(0x9E3779B97F4A7C15) != want[0] {
		t.Error("Next is not Mix of the incremented state")
	}
}

// A plan prints as kind@N[:arg] events joined by commas, and At finds the
// event on an ordinal of a layer whose kinds share one counter.
func TestPlanStringAndAt(t *testing.T) {
	for _, c := range []struct {
		plan fmt.Stringer
		want string
	}{
		{seeded.Plan[faultnet.FaultKind](nil), ""},
		{faultnet.PlanFromSeed(5), "drop@2,delay@20:11,duplicate@5,reset@8,truncation@17:49"},
		// A zero argument is no argument.
		{seeded.Plan[faultnet.FaultKind]{{Kind: faultnet.FaultDrop, At: 4}, {Kind: faultnet.FaultDelay, At: 2}}, "drop@4,delay@2"},
		{seeded.Plan[faultfs.FaultKind]{{Kind: faultfs.FaultTornWrite, At: 3, Arg: 17}}, "torn-write@3:17"},
		{seeded.Plan[faultfs.FaultKind]{{Kind: faultfs.FaultENOSPC, At: 1205}, {Kind: faultfs.FaultFailedSync, At: 2},
			{Kind: faultfs.FaultTornWrite, At: 2}}, "enospc@1205,failed-sync@2,torn-write@2"},
	} {
		if got := c.plan.String(); got != c.want {
			t.Errorf("plan prints as %q, want %q", got, c.want)
		}
	}

	p := seeded.Plan[faultnet.FaultKind]{{Kind: faultnet.FaultDrop, At: 3}, {Kind: faultnet.FaultDelay, At: 5, Arg: 7}}
	want := map[int64]seeded.Event[faultnet.FaultKind]{3: p[0], 5: p[1]}
	for n := int64(0); n <= 6; n++ {
		got, ok := p.At(n)
		if w, scheduled := want[n]; got != w || ok != scheduled {
			t.Errorf("At(%d) = %v, %v; want %v, %v", n, got, ok, w, scheduled)
		}
	}
	var empty seeded.Plan[faultnet.FaultKind]
	if _, ok := empty.At(1); ok {
		t.Error("a nil plan must be inert")
	}
}

// Check reports a plan with an event that could never fire: a kind's
// second event (every kind is one-shot), and on a shared counter a second
// event at one ordinal.
func TestCheckRejectsUnfireablePlans(t *testing.T) {
	type ev = seeded.Event[faultnet.FaultKind]
	drop3, reset3 := ev{Kind: faultnet.FaultDrop, At: 3}, ev{Kind: faultnet.FaultReset, At: 3}
	for _, c := range []struct {
		plan  seeded.Plan[faultnet.FaultKind]
		wants []string
	}{
		{seeded.Plan[faultnet.FaultKind]{drop3, reset3}, []string{"drop@3", "reset@3", "ordinal"}},
		{seeded.Plan[faultnet.FaultKind]{{Kind: faultnet.FaultDelay, At: 2, Arg: 5}, {Kind: faultnet.FaultDrop, At: 2}},
			[]string{"delay@2:5", "drop@2", "ordinal"}},
		{seeded.Plan[faultnet.FaultKind]{drop3, {Kind: faultnet.FaultDrop, At: 9}}, []string{"drop@3", "drop@9", "once"}},
	} {
		err := faultnet.Layer.Check(c.plan)
		if err == nil {
			t.Errorf("Check(%v) passed, want an error", c.plan)
			continue
		}
		for _, want := range c.wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Check(%v): error %q does not name %s", c.plan, err, want)
			}
		}
	}
	if err := faultnet.Layer.Check(seeded.Plan[faultnet.FaultKind]{drop3, {Kind: faultnet.FaultReset, At: 4}}); err != nil {
		t.Errorf("a plan that can fire was rejected: %v", err)
	}

	// Without a shared counter only the one-shot rule applies.
	var disk seeded.Layer[faultfs.FaultKind]
	torn2 := seeded.Event[faultfs.FaultKind]{Kind: faultfs.FaultTornWrite, At: 2}
	if disk.Check(seeded.Plan[faultfs.FaultKind]{torn2, {Kind: faultfs.FaultTornWrite, At: 5}}) == nil {
		t.Error("two torn writes passed; the second could never fire")
	}
	if err := disk.Check(seeded.Plan[faultfs.FaultKind]{torn2, {Kind: faultfs.FaultFailedSync, At: 2}}); err != nil {
		t.Errorf("write 2 and sync 2 are different operations, but: %v", err)
	}
}

// oneAtATime is the shrinker Minimize replaced in cmd/torture: drop single
// items, keeping each removal that still fails, until a pass drops none.
func oneAtATime(items []int, fails func([]int) bool) []int {
	for changed := true; changed; {
		changed = false
		for _, it := range slices.Clone(items) {
			i := slices.Index(items, it)
			if cand := slices.Delete(slices.Clone(items), i, i+1); fails(cand) {
				items, changed = cand, true
			}
		}
	}
	return items
}

func TestMinimize(t *testing.T) {
	items := make([]int, 16)
	for i := range items {
		items[i] = i
	}
	// The failure needs every item of need; anything else is noise.
	for _, need := range [][]int{{}, {0}, {15}, {0, 8}, {0, 5}, {7, 8}, {3, 9, 14}, {1, 2, 4, 8, 15}, items} {
		calls := 0
		fails := func(c []int) bool {
			calls++
			for _, n := range need {
				if !slices.Contains(c, n) {
					return false
				}
			}
			return true
		}
		got := seeded.Minimize(items, fails)
		if !slices.Equal(got, need) {
			t.Errorf("need %v: Minimize = %v", need, got)
		}
		for i := range got { // 1-minimal by its own definition, not only by construction of fails
			if fails(slices.Delete(slices.Clone(got), i, i+1)) {
				t.Errorf("need %v: %v still fails without its item %d", need, got, i)
			}
		}
		minimizeCalls := calls - len(got)
		calls = 0
		if ref := oneAtATime(items, fails); !slices.Equal(ref, need) {
			t.Fatalf("need %v: reference shrinker = %v", need, ref)
		}
		t.Logf("need %v: %d calls, one at a time %d", need, minimizeCalls, calls)
		if len(need) == 2 && minimizeCalls >= calls {
			t.Errorf("need %v: Minimize made %d calls, the one-at-a-time loop %d", need, minimizeCalls, calls)
		}
	}
	if !slices.Equal(items, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) {
		t.Errorf("Minimize wrote to its input: %v", items)
	}
}

// An item can become removable only after a later one has gone (a fuzz
// store that a later load depends on): one pass of single removals leaves
// it behind, so the passes repeat until one removes nothing.
func TestMinimizeReachesAFixpoint(t *testing.T) {
	// Fails while it holds 3; but with 5 present and 1 gone it does not run at all.
	fails := func(c []int) bool {
		return slices.Contains(c, 3) && (slices.Contains(c, 1) || !slices.Contains(c, 5))
	}
	if got := seeded.Minimize([]int{0, 1, 2, 3, 4, 5, 6}, fails); !slices.Equal(got, []int{3}) {
		t.Errorf("Minimize = %v, want [3]: 1 is removable once 5 is gone", got)
	}
}

// fuzz.Shrink's predicate goes permanently false when its evaluation
// budget runs out or its context is cancelled: the search must stop where
// it stands and return the last list that failed.
func TestMinimizeStopsWhenFailsTurnsFalse(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	for budget := 0; budget < 40; budget++ {
		calls, last := 0, items
		got := seeded.Minimize(items, func(c []int) bool {
			if calls++; calls > budget {
				return false
			}
			last = c
			return true
		})
		if !slices.Equal(got, last) {
			t.Errorf("budget %d: returned %v, the last failing list was %v", budget, got, last)
		}
		if calls > budget+2*len(items) {
			t.Errorf("budget %d: %d calls after the budget ran out", budget, calls-budget)
		}
	}
}

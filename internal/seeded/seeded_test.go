package seeded_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/faultnet"
	"repro/internal/guard"
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

// roundTrip checks Parse and String are inverses on one layer: text parses
// to the plan, the plan prints as the text.
func roundTrip[K seeded.Kind](t *testing.T, l seeded.Layer[K], text string, plan seeded.Plan[K]) {
	t.Helper()
	got, err := l.Parse(text)
	if err != nil {
		t.Errorf("Parse(%q): %v", text, err)
		return
	}
	if !slices.Equal(got, plan) {
		t.Errorf("Parse(%q) = %v, want %v", text, got, plan)
	}
	if plan.String() != text {
		t.Errorf("%v prints as %q, want %q", []seeded.Event[K](plan), plan.String(), text)
	}
}

func TestParseIsTheInverseOfString(t *testing.T) {
	roundTrip(t, faultfs.Layer, "", nil)
	roundTrip(t, faultfs.Layer, "torn-write@3:17", seeded.Plan[faultfs.FaultKind]{
		{Kind: faultfs.FaultTornWrite, At: 3, Arg: 17}})
	// Disk kinds count separately: write 2 and sync 2 are different events.
	roundTrip(t, faultfs.Layer, "enospc@1205,failed-sync@2,torn-write@2", seeded.Plan[faultfs.FaultKind]{
		{Kind: faultfs.FaultENOSPC, At: 1205}, {Kind: faultfs.FaultFailedSync, At: 2}, {Kind: faultfs.FaultTornWrite, At: 2}})
	roundTrip(t, faultnet.Layer, "", nil)
	roundTrip(t, faultnet.Layer, "drop@2,delay@20:11,duplicate@5,reset@8,truncation@17:49", faultnet.PlanFromSeed(5))
	roundTrip(t, guard.ProcessFaults, "", nil)
	roundTrip(t, guard.ProcessFaults, "heartbeat-stall@2,die-before-ack@5", seeded.Plan[guard.FaultKind]{
		{Kind: guard.FaultHeartbeatStall, At: 2}, {Kind: guard.FaultDieBeforeAck, At: 5}})
	for seed := int64(-20); seed <= 20; seed++ {
		p := faultnet.PlanFromSeed(seed)
		roundTrip(t, faultnet.Layer, p.String(), p)
	}

	// Spaces around an event and an explicit zero argument are accepted.
	if p, err := faultnet.Layer.Parse(" drop@4 , delay@2:0 "); err != nil || p.String() != "drop@4,delay@2" {
		t.Errorf("lenient forms: %q, %v", p, err)
	}
}

func TestParseRejects(t *testing.T) {
	for text, wants := range map[string][]string{
		"drop":             {`"drop"`, "kind@N"},
		"tear@2":           {`"tear"`, "drop", "truncation"},
		"torn-write@2":     {`"torn-write"`}, // another layer's kind
		"drop@0":           {`"0"`},
		"drop@x":           {`"x"`},
		"drop@-3":          {`"-3"`},
		"delay@2:":         {`""`},
		"delay@2:-1":       {`"-1"`},
		"delay@2:1:1":      {`"1:1"`},
		"drop@2,,reset@3":  {`""`},
		"drop@3,reset@3":   {"drop@3", "reset@3", "ordinal"},
		"delay@2:5,drop@2": {"delay@2:5", "drop@2", "ordinal"},
		"drop@3,drop@9":    {"drop@3", "drop@9", "once"},
	} {
		p, err := faultnet.Layer.Parse(text)
		if err == nil {
			t.Errorf("Parse(%q) = %v, want an error", text, p)
			continue
		}
		for _, want := range wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Parse(%q): error %q does not name %s", text, err, want)
			}
		}
	}
	// Without a shared counter only the one-shot rule applies.
	if _, err := faultfs.Layer.Parse("torn-write@2,torn-write@5"); err == nil {
		t.Error("two torn writes parsed; the second could never fire")
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

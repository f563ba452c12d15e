package experiments

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
)

// A cell is its configuration: the same machine on the same subject
// prints the same number wherever it runs. Every cell of a subset grid —
// fewer context counts, a pick of subjects — is the full grid's cell
// byte for byte; the ablation's interleaved and blocked rows are Table
// 7's four-context gains; the remote-latency sweep's 1.0x points are
// Table 10's ocean cells at four contexts.
func TestCellIsItsConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	same := func(what string, got, want any) {
		t.Helper()
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(g) != string(w) {
			t.Errorf("%s:\n got %s\nwant %s", what, g, w)
		}
	}

	uni := QuickUniConfig()
	full, err := workstationGrid.run(ctx, uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, narrow := range []func(*UniConfig){
		func(c *UniConfig) { c.ContextCounts = []int{4} },
		func(c *UniConfig) { c.Workloads = []string{"R1", "DT"}; c.Schemes = []core.Scheme{core.Interleaved} },
	} {
		cfg := uni
		narrow(&cfg)
		sub, err := workstationGrid.run(ctx, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sub.Cells {
			f, ok := full.Cell(c.Workload, c.Scheme, c.Contexts)
			if !ok {
				t.Fatalf("subset cell %s/%v/%d is not in the full grid", c.Workload, c.Scheme, c.Contexts)
			}
			same("subset cell "+c.Workload+"/"+c.Scheme.String(), c, f)
		}
	}

	abl, err := RunAblationsCtx(ctx, uni)
	if err != nil {
		t.Fatal(err)
	}
	for ri, s := range []core.Scheme{core.Interleaved, core.Blocked} {
		row := abl.Rows[ri]
		for wi, w := range abl.Workloads {
			c, _ := full.Cell(w, s, 4)
			same("ablation row "+row.Name+" on "+w, row.Gains[wi], c.Gain)
		}
	}

	mpc := QuickMPConfig()
	table10, err := multiprocessorGrid.run(ctx, mpc, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := mpc
	sub.Apps, sub.ContextCounts = []string{"ocean"}, []int{4}
	narrow, err := multiprocessorGrid.run(ctx, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range narrow.Cells {
		f, _ := table10.Cell(c.App, c.Scheme, c.Contexts)
		same("subset cell "+c.App+"/"+c.Scheme.String(), c, f)
	}
	sweep, err := RemoteLatencySweepCtx(ctx, mpc, "ocean")
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, s := range []core.Scheme{core.Blocked, core.Interleaved} {
		c, _ := table10.Cell("ocean", s, 4)
		for _, pt := range sweep.Series[s.String()] {
			if pt.X == 1 {
				same("remote-latency 1.0x "+s.String(), pt.Gain, c.Speedup)
				points++
			}
		}
	}
	if points != 2 {
		t.Errorf("the remote-latency sweep has %d 1.0x points, want 2", points)
	}
}

// The memo belongs to a run, not to the process: called twice in one
// process outside a run, RunUniCell and SwitchCostSweepCtx simulate
// every cell they name each time, as repeated benchmark passes need.
// Inside one run the second sweep simulates nothing and prints the same.
func TestMemoBelongsToARun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickUniConfig()
	ctx := context.Background()
	for pass := 1; pass <= 2; pass++ {
		before := Cells()
		if _, err := RunUniCell(ctx, cfg, 0); err != nil {
			t.Fatal(err)
		}
		if got := Cells().Sub(before); got != (CellCounts{Simulated: 1}) {
			t.Errorf("RunUniCell pass %d: %v, want the one cell simulated", pass, got)
		}
	}
	sweep := func(ctx context.Context) (*SweepResult, CellCounts) {
		t.Helper()
		before := Cells()
		r, err := SwitchCostSweepCtx(ctx, cfg, "DC")
		if err != nil {
			t.Fatal(err)
		}
		return r, Cells().Sub(before)
	}
	// The baseline and the interleaved reference from scratch, the ten
	// blocked points forked from one warm-up.
	want := CellCounts{Simulated: 2, Forked: 10}
	var first *SweepResult
	for pass := 1; pass <= 2; pass++ {
		r, got := sweep(ctx)
		if got != want {
			t.Errorf("SwitchCostSweepCtx pass %d: %v, want %v", pass, got, want)
		}
		first = r
	}

	run := NewRun(2).Context(ctx)
	if _, got := sweep(run); got != want {
		t.Errorf("the first sweep of a run: %v, want %v", got, want)
	}
	r, got := sweep(run)
	if got != (CellCounts{Shared: 12}) {
		t.Errorf("the second sweep of a run: %v, want every cell shared", got)
	}
	if FormatSweep(r) != FormatSweep(first) {
		t.Errorf("a shared sweep prints\n%s\nwant\n%s", FormatSweep(r), FormatSweep(first))
	}

	// Two sweeps at once in a fresh run: each cell is simulated by one of
	// them and shared by the other, single-flight.
	run = NewRun(2).Context(ctx)
	before := Cells()
	var wg sync.WaitGroup
	outs := make([]string, 2)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := SwitchCostSweepCtx(run, cfg, "DC")
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = FormatSweep(r)
		}()
	}
	wg.Wait()
	if got := Cells().Sub(before); got != (CellCounts{Simulated: 2, Forked: 10, Shared: 12}) {
		t.Errorf("two concurrent sweeps of a run: %v, want each cell simulated once and shared once", got)
	}
	for _, out := range outs {
		if out != FormatSweep(first) {
			t.Errorf("a concurrent sweep prints\n%s\nwant\n%s", out, FormatSweep(first))
		}
	}
}

// A seed follows the machine, not the way its config is written: a core
// override that restates the scheme's default seeds as no override, and
// a config that does not encode is refused, not keyed.
func TestSeedFollowsTheMachine(t *testing.T) {
	ws := DefaultUniConfig().cellConfig(core.Interleaved, 4)
	restated := ws
	cc := core.DefaultConfig(core.Interleaved, 4)
	restated.Core = &cc
	a, b := seedWorkstation(1, "DC", ws), seedWorkstation(1, "DC", restated)
	if a.Seed != b.Seed || b.Core != nil {
		t.Errorf("a restated default core seeds %d (core %v), want %d and no override", b.Seed, b.Core, a.Seed)
	}
	if prefixKey("DC", ws) != prefixKey("DC", restated) {
		t.Error("a restated default override changes the prefix key")
	}
	cc.BTBEntries = 0
	if seedWorkstation(1, "DC", restated).Seed == a.Seed {
		t.Error("a real core override keeps the default machine's seed")
	}

	mcfg := DefaultMPConfig()
	m := mcfg.cellConfig(core.Blocked, 2)
	opts := mcfg.programOptions(core.Blocked, 2)
	mrestated := m
	mc := core.DefaultConfig(core.Blocked, 2)
	mrestated.Core = &mc
	if x, y := seedMP(1, "ocean", opts, m), seedMP(1, "ocean", opts, mrestated); x.Coherence.Seed != y.Coherence.Seed || y.Core != nil {
		t.Errorf("a restated default core seeds %d (core %v), want %d and no override", y.Coherence.Seed, y.Core, x.Coherence.Seed)
	}

	defer func() {
		if recover() == nil {
			t.Error("a config that does not encode was keyed")
		}
	}()
	seedKey("DC", math.NaN())
}

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// Run's busy streak (processor.go, fastforward.go "busy streak"): after two
// consecutive retiring cycles Run steps without classifying the cycle
// first, until a cycle retires nothing. These tests drive three machines
// through each scenario in lockstep —
//
//   - run: Processor.Run, the loop under test;
//   - classified: the loop Run was before the streak, NextEvent ahead of
//     every Step (the reference the streak must be invisible against);
//   - stepped: Step alone, one cycle at a time, which is also where the
//     test reads what each cycle did
//
// — and compare their whole serialized state after every Run call. From the
// stepped machine's cycle log the test works out at which cycles Run was
// inside a streak (the two cycles before retired, inside the same call) and
// tallies how each streak was entered and left, so a scenario that never
// takes a streak through the event it is named for fails instead of
// passing empty.

// classifyEveryCycle is Run without the streak.
func classifyEveryCycle(p *Processor, n int64) {
	end := p.cycle + n
	for p.cycle < end {
		cls, ctx, until := p.NextEvent()
		if until <= p.cycle {
			p.Step()
			continue
		}
		p.skipTo(min(until, end), cls, ctx)
	}
}

// idealFetchMem is fakeMem declaring its instruction fetch pure, as the
// multiprocessor's node memory does: the monopolizing schemes then skip
// interlock regions, and Run's Advance issues in the pass that classified
// — which a streak's Steps do not.
type idealFetchMem struct{ *fakeMem }

func (idealFetchMem) InstFetchIsIdeal() bool { return true }

// branchyProg is straight-line single-cycle integer code around a branch
// that alternates taken / not taken, so the BTB's last-target prediction is
// wrong every time: on an always-hit memory its only non-retiring slots are
// fetch redirects.
func branchyProg(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("streak-branchy", 0x1000, 0x10_0000, 1<<16)
	b.Label("loop")
	b.Xori(isa.R1, isa.R1, 1)
	b.Addi(isa.R2, isa.R2, 1)
	b.Addi(isa.R3, isa.R3, 1)
	b.Bgtz(isa.R1, "odd")
	b.Addi(isa.R5, isa.R5, 1)
	b.Label("odd")
	b.Addi(isa.R6, isa.R6, 1)
	b.Addi(isa.R7, isa.R7, 1)
	b.J("loop")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// yieldOnlyProg retires a few independent instructions and then yields —
// BACKOFF or SWITCH by mode — forever. On an always-hit memory every
// context switch it causes is an explicit one.
func yieldOnlyProg(mode prog.YieldMode) func(testing.TB) *prog.Program {
	return func(t testing.TB) *prog.Program {
		t.Helper()
		b := prog.NewBuilder("streak-yield", 0x1000, 0x10_0000, 1<<16)
		b.SetYield(mode)
		b.Label("loop")
		for r := isa.R1; r <= isa.R5; r++ {
			b.Addi(r, r, 1)
		}
		b.Yield(6)
		b.Addi(isa.R6, isa.R6, 1)
		b.J("loop")
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

type streakScenario struct {
	name   string
	prog   func(testing.TB) *prog.Program
	scheme Scheme
	nctx   int
	width  int                  // IssueWidth, 0 for the paper's single issue
	noFF   bool                 // Cfg.NoFastForward
	btb    int                  // BTBEntries, 0 for the default
	mem    func() memsys.System // nil: the workstation cache hierarchy
	fabric bool                 // instead: node 0 of a two-node coherence fabric
	chunk  int64                // cycles per Run call ("slice")
	chunks int
	sample int64 // metrics SampleEvery, 0 for an unobserved machine
	trace  bool  // install a Trace hook on every machine
	// covered reports what the scenario is there to exercise and did not.
	covered func(tl *streakTally) string
}

// streakTally is how Run's streaks began and ended over a scenario.
type streakTally struct {
	entries    int                 // Run stopped classifying (second retiring cycle in a row)
	exits      [NumSlotClasses]int // a streak ended on a slot charged to this class
	missSwitch int                 // ... on a data miss that switched contexts
	explicit   int                 // ... on a SWITCH
	backoff    int                 // ... on a BACKOFF
	redirect   int                 // ... on the fetch redirect after a mispredicted branch
	sliceEnds  int                 // a Run call returned mid-streak
	samples    int                 // a sample point was crossed mid-streak
}

type streakMachine struct {
	proc    *Processor
	fm      *mem.Memory
	h       *cache.Hierarchy
	fab     *coherence.Fabric
	threads []*Thread
	col     *metrics.Collector
	events  []TraceEvent
}

func (sc *streakScenario) build(t *testing.T) *streakMachine {
	t.Helper()
	m := &streakMachine{fm: mem.New()}
	var sys memsys.System
	switch {
	case sc.fabric:
		m.fab = coherence.MustNewFabric(coherence.DefaultParams(), 2)
		sys = m.fab.Node(0)
	case sc.mem != nil:
		sys = sc.mem()
	default:
		m.h = cache.MustNewHierarchy(cache.DefaultParams())
		sys = m.h
	}
	pr := sc.prog(t)
	pr.LoadInit(m.fm)
	cfg := DefaultConfig(sc.scheme, sc.nctx)
	cfg.IssueWidth = sc.width
	cfg.NoFastForward = sc.noFF
	if sc.btb > 0 {
		cfg.BTBEntries = sc.btb
	}
	m.proc = MustNewProcessor(cfg, sys, m.fm)
	if sc.sample > 0 {
		m.col = metrics.NewCollector(metrics.Options{SampleEvery: sc.sample, Events: true}, 1)
		m.proc.AttachMetrics(m.col.Proc(0))
		if m.h != nil {
			m.h.AttachMetrics(m.col.Proc(0))
		}
		if m.fab != nil {
			m.fab.Node(0).AttachMetrics(m.col.Proc(0))
		}
	}
	if sc.trace {
		m.proc.Trace = func(ev TraceEvent) { m.events = append(m.events, ev) }
	}
	for i := 0; i < sc.nctx; i++ {
		th := NewThread(fmt.Sprintf("t%d", i), pr)
		th.SetIntReg(isa.R4, uint32(i))
		m.proc.BindThread(i, th)
		m.threads = append(m.threads, th)
	}
	return m
}

// state is everything the machine would checkpoint, plus the trace so
// far. An observed processor does not checkpoint: its clock and accounting
// stand in, and after the last Run call (final) everything its observers
// recorded.
func (m *streakMachine) state(t *testing.T, final bool) []byte {
	t.Helper()
	if !m.proc.Observed() {
		return append(m.checkpoint(), fmt.Sprintf("%v", m.events)...)
	}
	w := snapshot.NewWriter()
	for _, th := range m.threads {
		th.SaveState(w)
	}
	var blob []byte
	if final {
		var err error
		if blob, err = json.Marshal(m.col.Result()); err != nil {
			t.Fatal(err)
		}
	}
	return append(w.Bytes(), fmt.Sprintf("@%d %+v %s", m.proc.Now(), m.proc.Stats, blob)...)
}

// checkpoint is the unobserved machine as a driver would save it: threads,
// processor, memory system, functional memory.
func (m *streakMachine) checkpoint() []byte {
	w := snapshot.NewWriter()
	for _, th := range m.threads {
		th.SaveState(w)
	}
	m.proc.SaveState(w)
	if m.h != nil {
		m.h.SaveState(w)
	}
	if m.fab != nil {
		m.fab.SaveState(w)
	}
	m.fm.SaveState(w)
	return w.Bytes()
}

func slotsDelta(before, after *Stats) (cls SlotClass, ok bool) {
	for c := range after.Slots {
		if c != int(SlotBusy) && c != int(SlotSyncBusy) && after.Slots[c] != before.Slots[c] {
			return SlotClass(c), true
		}
	}
	return 0, false
}

func (sc *streakScenario) run(t *testing.T) streakTally {
	t.Helper()
	run, classified, stepped := sc.build(t), sc.build(t), sc.build(t)
	var tl streakTally
	for k := 0; k < sc.chunks; k++ {
		start := stepped.proc.Now()
		// retired[i] is whether cycle start+i retired; streak is whether Run
		// reaches that cycle without classifying it.
		retired := make([]bool, sc.chunk)
		streak := func(i int64) bool { return i >= 2 && retired[i-1] && retired[i-2] }
		mispredicted := false
		for i := int64(0); i < sc.chunk; i++ {
			before := stepped.proc.Stats
			retired[i] = stepped.proc.Step()
			after := &stepped.proc.Stats
			if streak(i) {
				if !streak(i - 1) {
					tl.entries++
				}
				if sc.sample > 0 && (start+i+1)%sc.sample == 0 {
					tl.samples++
				}
				if cls, charged := slotsDelta(&before, after); !retired[i] && charged {
					tl.exits[cls]++
					switch {
					case after.MissSwitches != before.MissSwitches:
						tl.missSwitch++
					case after.ExplicitSwitches != before.ExplicitSwitches:
						tl.explicit++
					case after.Backoffs != before.Backoffs:
						tl.backoff++
					case mispredicted && cls == SlotStallShort:
						tl.redirect++
					}
				}
			}
			mispredicted = after.Mispredicts != before.Mispredicts
		}
		if streak(sc.chunk) {
			tl.sliceEnds++
		}

		run.proc.Run(sc.chunk)
		classifyEveryCycle(classified.proc, sc.chunk)
		final := k == sc.chunks-1
		want := stepped.state(t, final)
		if got := run.state(t, final); !bytes.Equal(got, want) {
			t.Fatalf("%s: after Run call %d (cycle %d) the machine differs from the stepped one\n run:     %+v\n stepped: %+v",
				sc.name, k, run.proc.Now(), run.proc.Stats, stepped.proc.Stats)
		}
		if got := classified.state(t, final); !bytes.Equal(got, want) {
			t.Fatalf("%s: after call %d (cycle %d) the classify-every-cycle loop differs from the stepped machine",
				sc.name, k, classified.proc.Now())
		}
	}
	if err := run.proc.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	return tl
}

func needs(ok bool, what string) string {
	if ok {
		return ""
	}
	return what
}

// TestBusyStreakInvisible is the slot-by-slot equivalence of Run with and
// without the busy streak, over every way a streak ends.
func TestBusyStreakInvisible(t *testing.T) {
	perfect := func() memsys.System { return perfectMem{} }
	idealFake := func() memsys.System { return idealFetchMem{newFakeMem(40)} }
	scenarios := []streakScenario{
		{name: "miss/interleaved", prog: stallProg, scheme: Interleaved, nctx: 4, chunk: 997, chunks: 25,
			covered: func(tl *streakTally) string { return needs(tl.missSwitch > 0, "a miss switch inside a streak") }},
		{name: "miss/blocked", prog: stallProg, scheme: Blocked, nctx: 2, chunk: 997, chunks: 25,
			covered: func(tl *streakTally) string { return needs(tl.missSwitch > 0, "a miss switch inside a streak") }},
		{name: "miss/single", prog: stallProg, scheme: Single, nctx: 1, chunk: 997, chunks: 25,
			covered: func(tl *streakTally) string {
				return needs(tl.exits[SlotDMem] > 0, "a stall on a missing load inside a streak")
			}},
		{name: "miss/fine-grained", prog: stallProg, scheme: FineGrained, nctx: 4, chunk: 997, chunks: 25,
			covered: func(tl *streakTally) string { return "" }}, // one instruction per context in flight: streaks are rare
		{name: "miss/ideal-fetch/single", prog: stallProg, scheme: Single, nctx: 1, mem: idealFake, chunk: 997, chunks: 25,
			covered: func(tl *streakTally) string {
				return needs(tl.exits[SlotDMem]+tl.exits[SlotStallLong] > 0, "an interlock region entered from a streak")
			}},
		{name: "miss/ideal-fetch/blocked", prog: stallProg, scheme: Blocked, nctx: 2, mem: idealFake, chunk: 997, chunks: 25,
			covered: func(tl *streakTally) string { return needs(tl.missSwitch > 0, "a miss switch inside a streak") }},
		{name: "backoff", prog: yieldOnlyProg(prog.YieldBackoff), scheme: Interleaved, nctx: 2, mem: perfect, chunk: 211, chunks: 30,
			covered: func(tl *streakTally) string { return needs(tl.backoff > 0, "a BACKOFF inside a streak") }},
		{name: "switch", prog: yieldOnlyProg(prog.YieldSwitch), scheme: Blocked, nctx: 2, mem: perfect, chunk: 211, chunks: 30,
			covered: func(tl *streakTally) string { return needs(tl.explicit > 0, "a SWITCH inside a streak") }},
		{name: "yields/hierarchy", prog: yieldProg, scheme: Interleaved, nctx: 4, chunk: 499, chunks: 30,
			covered: func(tl *streakTally) string { return needs(tl.missSwitch > 0, "a miss switch inside a streak") }},
		{name: "mispredict", prog: branchyProg, scheme: Single, nctx: 1, mem: perfect, chunk: 211, chunks: 30,
			covered: func(tl *streakTally) string { return needs(tl.redirect > 0, "a mispredict redirect inside a streak") }},
		{name: "mispredict/interleaved", prog: branchyProg, scheme: Interleaved, nctx: 2, mem: perfect, chunk: 211, chunks: 30,
			covered: func(tl *streakTally) string { return needs(tl.entries > 0, "a streak") }},
		// A 7-cycle slice on always-busy code: nearly every call ends mid-streak
		// and the next one must start by classifying again.
		{name: "slice-end", prog: branchyProg, scheme: Interleaved, nctx: 2, mem: perfect, chunk: 7, chunks: 400,
			covered: func(tl *streakTally) string { return needs(tl.sliceEnds > 100, "slices ending mid-streak") }},
		{name: "slice-end/hierarchy", prog: stallProg, scheme: Interleaved, nctx: 4, chunk: 13, chunks: 150,
			covered: func(tl *streakTally) string { return needs(tl.sliceEnds > 0, "slices ending mid-streak") }},
		{name: "width2", prog: stallProg, scheme: Interleaved, nctx: 4, width: 2, chunk: 997, chunks: 25,
			covered: func(tl *streakTally) string { return needs(tl.missSwitch > 0, "a miss switch inside a streak") }},
		{name: "width2/single", prog: branchyProg, scheme: Single, nctx: 1, width: 2, mem: perfect, chunk: 211, chunks: 30,
			covered: func(tl *streakTally) string { return needs(tl.entries > 0, "a streak") }},
		{name: "trace", prog: yieldProg, scheme: Interleaved, nctx: 2, trace: true, chunk: 499, chunks: 20,
			covered: func(tl *streakTally) string { return needs(tl.entries > 0, "a streak") }},
		// Sample points every 64 cycles over busy code: most are crossed by
		// an unclassified Step, the rest by Step after a classification or
		// inside ObservedSkipTo.
		{name: "sampling", prog: stallProg, scheme: Interleaved, nctx: 4, sample: 64, chunk: 997, chunks: 25,
			covered: func(tl *streakTally) string { return needs(tl.samples > 10, "sample points crossed mid-streak") }},
		{name: "sampling/blocked", prog: stallProg, scheme: Blocked, nctx: 2, sample: 32, chunk: 499, chunks: 40,
			covered: func(tl *streakTally) string { return needs(tl.samples > 0, "sample points crossed mid-streak") }},
	}
	for _, sc := range scenarios {
		tl := sc.run(t)
		if tl.entries == 0 && sc.scheme != FineGrained {
			t.Errorf("%s: Run never entered a streak", sc.name)
		}
		if missing := sc.covered(&tl); missing != "" {
			t.Errorf("%s: coverage hole: never saw %s (%+v)", sc.name, missing, tl)
		}
		t.Logf("%-26s %+v", sc.name, tl)
	}
}

// TestStepReportsRetirement: Step's result is the streak's only input, so
// it must say exactly whether the cycle moved Stats.Retired — on hits,
// misses that replay, misses executed under (single context), fine-grained
// references, yields, traps and halts.
func TestStepReportsRetirement(t *testing.T) {
	for _, sc := range []streakScenario{
		{name: "stall/single", prog: stallProg, scheme: Single, nctx: 1},
		{name: "stall/blocked", prog: stallProg, scheme: Blocked, nctx: 2},
		{name: "stall/interleaved", prog: stallProg, scheme: Interleaved, nctx: 4},
		{name: "stall/fine-grained", prog: stallProg, scheme: FineGrained, nctx: 4},
		{name: "stall/width2", prog: stallProg, scheme: Interleaved, nctx: 2, width: 2},
		{name: "yield/interleaved", prog: yieldProg, scheme: Interleaved, nctx: 4},
		{name: "yield/blocked-fast", prog: yieldProg, scheme: BlockedFast, nctx: 2},
	} {
		m := sc.build(t)
		var yes, no int
		for i := 0; i < 60_000; i++ {
			before := m.proc.Stats.Retired
			got := m.proc.Step()
			if want := m.proc.Stats.Retired != before; got != want {
				t.Fatalf("%s: cycle %d: Step reported retired=%v, Stats.Retired moved=%v", sc.name, i, got, want)
			}
			if got {
				yes++
			} else {
				no++
			}
		}
		if yes == 0 || no == 0 {
			t.Errorf("%s: %d retiring and %d non-retiring cycles; the scenario needs both", sc.name, yes, no)
		}
	}
}

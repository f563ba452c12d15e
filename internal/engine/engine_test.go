package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/guard"
)

// fakeMachine is the minimal Advance/Halted/Progress implementation:
// the clock settles exactly at target (optionally stopping at haltAt),
// and progress accrues one unit per cycle until frozenAt.
type fakeMachine struct {
	now      int64
	haltAt   int64 // 0: never halts
	frozenAt int64 // 0: always progressing
	spans    [][2]int64
}

func (m *fakeMachine) advance(now, target int64) int64 {
	m.spans = append(m.spans, [2]int64{now, target})
	if m.haltAt > 0 && target > m.haltAt {
		target = m.haltAt
	}
	m.now = target
	return target
}

func (m *fakeMachine) halted() bool { return m.haltAt > 0 && m.now >= m.haltAt }

func (m *fakeMachine) progress() int64 {
	if m.frozenAt > 0 && m.now > m.frozenAt {
		return m.frozenAt
	}
	return m.now
}

// The LimitCycles/20 default truncates to zero for budgets under 20
// cycles, which ResolveWatchdog reads as "no default" — the regression
// the MinWatchdogWindow floor fixes.
func TestDefaultWatchdogWindowFloor(t *testing.T) {
	cases := []struct{ limit, want int64 }{
		{50_000_000, 2_500_000},
		{100_000, 5_000},
		{2_000, 100},
		{engine.MinWatchdogWindow * engine.DefaultWatchdogDivisor, engine.MinWatchdogWindow},
		{19, engine.MinWatchdogWindow}, // truncates to 0 without the floor
		{10, engine.MinWatchdogWindow},
		{1, engine.MinWatchdogWindow},
		{0, engine.MinWatchdogWindow},
	}
	for _, c := range cases {
		if got := engine.DefaultWatchdogWindow(c.limit); got != c.want {
			t.Errorf("DefaultWatchdogWindow(%d) = %d, want %d", c.limit, got, c.want)
		}
	}
	// The floor must still feed through ResolveWatchdog as a real
	// default: explicitly disabling wins, tiny budgets do not disarm.
	if got := (guard.Options{}).ResolveWatchdog(engine.DefaultWatchdogWindow(10)); got != engine.MinWatchdogWindow {
		t.Errorf("tiny budget resolved to window %d, want %d", got, engine.MinWatchdogWindow)
	}
	if got := (guard.Options{WatchdogWindow: -1}).ResolveWatchdog(engine.DefaultWatchdogWindow(10)); got != 0 {
		t.Errorf("explicit disable resolved to window %d, want 0", got)
	}
}

// A canceled context must stop the run within one block of the
// cancellation, with the drain hook fired at the same cycle the error
// reports.
func TestCancellationLatency(t *testing.T) {
	m := &fakeMachine{}
	ctx, cancel := context.WithCancel(context.Background())
	const cancelAt = 1000 // mid-block: not a multiple of BlockCycles
	var drainedAt int64 = -1
	e := &engine.Engine{
		Advance: func(now, target int64) int64 {
			settled := m.advance(now, target)
			if settled >= cancelAt {
				cancel()
			}
			return settled
		},
		OnCancel: func(now int64) { drainedAt = now },
	}
	halted, err := e.Run(ctx, 0, 1_000_000)
	if halted || err == nil {
		t.Fatalf("halted=%v err=%v, want cancellation error", halted, err)
	}
	se := guard.AsSimError(err)
	if se == nil || se.Op != guard.OpCanceled {
		t.Fatalf("err = %v, want %s SimError", err, guard.OpCanceled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("errors.Is(err, context.Canceled) = false")
	}
	if se.Cycle < cancelAt || se.Cycle >= cancelAt+engine.BlockCycles {
		t.Errorf("canceled at cycle %d, want within one block of %d", se.Cycle, cancelAt)
	}
	if drainedAt != se.Cycle {
		t.Errorf("drain hook at %d, error at %d", drainedAt, se.Cycle)
	}
	// The attached run was clamped to BlockCycles spans.
	for _, s := range m.spans {
		if s[1]-s[0] > engine.BlockCycles {
			t.Fatalf("attached span [%d,%d) exceeds one block", s[0], s[1])
		}
	}
}

// A detached, unguarded, unobserved run must be one Advance call over
// the whole span: the engine never constrains the fast-forward engine's
// bulk skips. A guard cadence with nothing armed at it (no watchdog, no
// checker — a guarded uniprocessor run with default options) is no
// boundary either.
func TestDetachedRunIsOneSpan(t *testing.T) {
	for _, e := range []*engine.Engine{
		{},
		{GuardEvery: 4096, GuardAtEnd: true, Describe: func(*guard.Diagnostic) {}},
	} {
		m := &fakeMachine{}
		e.Advance = m.advance
		if halted, err := e.Run(nil, 0, 1_000_000); halted || err != nil {
			t.Fatalf("halted=%v err=%v", halted, err)
		}
		if len(m.spans) != 1 || m.spans[0] != [2]int64{0, 1_000_000} {
			t.Fatalf("detached spans = %v, want one full-span call", m.spans)
		}
	}
}

// The unified watchdog trip: one Reason wording, cycle and window from
// the engine, driver fields from Describe, counters updated.
func TestWatchdogTripShape(t *testing.T) {
	m := &fakeMachine{frozenAt: 500}
	e := &engine.Engine{
		Advance:    m.advance,
		Watchdog:   guard.NewWatchdog(1000),
		Progress:   m.progress,
		GuardEvery: 250,
		Describe: func(d *guard.Diagnostic) {
			d.Scheme = "fake"
			d.Notes = append(d.Notes, "described")
		},
	}
	halted, err := e.Run(nil, 0, 1_000_000)
	if halted || err == nil {
		t.Fatalf("halted=%v err=%v, want watchdog trip", halted, err)
	}
	se := guard.AsSimError(err)
	if se == nil || se.Op != guard.OpWatchdog {
		t.Fatalf("err = %v, want %s SimError", err, guard.OpWatchdog)
	}
	// Progress froze at 500; observations land at guard boundaries every
	// 250 cycles, so the last progress was seen at 500 and the window
	// elapses at 1500.
	if se.Cycle != 1500 {
		t.Errorf("tripped at cycle %d, want 1500", se.Cycle)
	}
	d := se.Diag
	if d == nil {
		t.Fatal("no diagnostic attached")
	}
	if !strings.Contains(d.Reason, "no useful instruction retired machine-wide") {
		t.Errorf("Reason = %q, want the unified machine-wide wording", d.Reason)
	}
	if d.Cycle != se.Cycle || d.Window != 1000 {
		t.Errorf("diag cycle/window = %d/%d, want %d/1000", d.Cycle, d.Window, se.Cycle)
	}
	if d.Scheme != "fake" || len(d.Notes) != 1 {
		t.Errorf("Describe fields missing: scheme=%q notes=%v", d.Scheme, d.Notes)
	}
	if e.Trips != 1 {
		t.Errorf("Trips = %d, want 1", e.Trips)
	}
	if e.Arms != 6 {
		// Boundaries at 250..1500: six observations, the sixth trips.
		t.Errorf("Arms = %d, want 6", e.Arms)
	}
}

// Guard boundaries with a lockstep grid (HaltEvery) land on the first
// block boundary at or past the due cycle, never splitting a block;
// without a grid they land exactly on the cadence, plus the span end
// when GuardAtEnd is set.
func TestGuardBoundarySchedule(t *testing.T) {
	var ends []int64
	m := &fakeMachine{}
	e := &engine.Engine{
		Advance:    m.advance,
		GuardEvery: 100,
		GuardAtEnd: true,
		Checkers:   []guard.InvariantChecker{recordClock(m, &ends)},
	}
	if _, err := e.Run(nil, 0, 350); err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 200, 300, 350}
	if len(ends) != len(want) {
		t.Fatalf("boundaries = %v, want %v", ends, want)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", ends, want)
		}
	}

	ends = nil
	m2 := &fakeMachine{}
	e2 := &engine.Engine{
		Advance:    m2.advance,
		Halted:     m2.halted,
		HaltEvery:  engine.BlockCycles,
		GuardEvery: 100,
		Checkers:   []guard.InvariantChecker{recordClock(m2, &ends)},
	}
	if _, err := e2.Run(nil, 0, 350); err != nil {
		t.Fatal(err)
	}
	// Blocks run to full boundaries (the last overruns 350 to 384);
	// guard work fires at the first boundary ≥ each due cycle.
	want = []int64{128, 256, 384}
	if len(ends) != len(want) {
		t.Fatalf("lockstep boundaries = %v, want %v", ends, want)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("lockstep boundaries = %v, want %v", ends, want)
		}
	}
	for _, s := range m2.spans {
		if s[0]%engine.BlockCycles != 0 || s[1]-s[0] != engine.BlockCycles {
			t.Fatalf("lockstep span [%d,%d) off the block grid", s[0], s[1])
		}
	}
}

// Cell samples are recorded at the cadence cycle even when the settled
// boundary has just passed it, and the cursor advances by exactly one
// period per sample.
func TestSampleSchedule(t *testing.T) {
	var samples []int64
	m := &fakeMachine{}
	e := &engine.Engine{
		Advance:     m.advance,
		Halted:      m.halted,
		HaltEvery:   engine.BlockCycles,
		Sample:      func(at int64) { samples = append(samples, at) },
		SampleEvery: 128,
	}
	if _, err := e.Run(nil, 0, 512); err != nil {
		t.Fatal(err)
	}
	want := []int64{128, 256, 384, 512}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
}

// A machine that halts mid-span reports halted immediately; an
// already-halted machine never advances.
func TestHaltDetection(t *testing.T) {
	m := &fakeMachine{haltAt: 700}
	e := &engine.Engine{Advance: m.advance, Halted: m.halted}
	halted, err := e.Run(nil, 0, 1_000_000)
	if !halted || err != nil {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	if m.now != 700 {
		t.Fatalf("settled at %d, want the halt cycle 700", m.now)
	}

	e2 := &engine.Engine{
		Advance: func(now, target int64) int64 { t.Fatal("advanced a halted machine"); return target },
		Halted:  func() bool { return true },
	}
	if halted, err := e2.Run(nil, 0, 100); !halted || err != nil {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
}

// An invariant violation at a guard boundary aborts the run with the
// checker's error.
func TestInvariantViolationAborts(t *testing.T) {
	m := &fakeMachine{}
	boom := guard.NewSimError("fake.invariant", errors.New("broken"))
	e := &engine.Engine{
		Advance:    m.advance,
		GuardEvery: 100,
		Checkers:   []guard.InvariantChecker{checkerFunc(func() error { return boom })},
	}
	_, err := e.Run(nil, 0, 1_000)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the checker's error", err)
	}
	if m.now != 100 {
		t.Fatalf("aborted at %d, want the first guard boundary 100", m.now)
	}
}

type checkerFunc func() error

func (f checkerFunc) CheckInvariants() error { return f() }

// recordClock is a checker that never fails and appends m's clock to *at
// at every guard boundary it is polled at.
func recordClock(m *fakeMachine, at *[]int64) guard.InvariantChecker {
	return checkerFunc(func() error {
		*at = append(*at, m.now)
		return nil
	})
}

// Guard cursors are absolute: resuming a span mid-schedule (the
// checkpoint restore path) observes the remaining boundaries at the
// exact cycles the uninterrupted run would.
func TestAbsoluteCursorsAcrossSpans(t *testing.T) {
	var ends []int64
	run := func(e *engine.Engine, spans [][2]int64) {
		for _, s := range spans {
			if _, err := e.Run(nil, s[0], s[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := &fakeMachine{}
	e := &engine.Engine{
		Advance:    m.advance,
		Halted:     m.halted,
		HaltEvery:  engine.BlockCycles,
		GuardEvery: 200,
		Checkers:   []guard.InvariantChecker{recordClock(m, &ends)},
	}
	run(e, [][2]int64{{0, 320}, {320, 640}})
	split := append([]int64(nil), ends...)

	ends = nil
	m2 := &fakeMachine{}
	e2 := &engine.Engine{
		Advance:    m2.advance,
		Halted:     m2.halted,
		HaltEvery:  engine.BlockCycles,
		GuardEvery: 200,
		Checkers:   []guard.InvariantChecker{recordClock(m2, &ends)},
	}
	run(e2, [][2]int64{{0, 640}})
	if len(split) != len(ends) {
		t.Fatalf("split run boundaries %v != whole run %v", split, ends)
	}
	for i := range ends {
		if split[i] != ends[i] {
			t.Fatalf("split run boundaries %v != whole run %v", split, ends)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// This file keeps the scan-based context selection the processor used
// before the ready mask (processor.go: ctxSummary / selectContext,
// fastforward.go: NextEvent) as a reference, and asserts slot by slot
// that the mask answers exactly what the scans answered: same pick, same
// round-robin / current-context / forced-fetch side effects, same wake
// cycle, same idle charge. The scans survive only here.

func scanRunnable(c *hwContext) bool { return c.thread != nil && !c.thread.Halted }

// scanSelectContext is the pre-mask selectContext, verbatim: it rescans
// the contexts on every call. It mutates p's selection pointers like the
// real one, so callers pass a copy of the processor.
func scanSelectContext(p *Processor, now int64) *hwContext {
	if p.forceNext >= 0 {
		c := &p.ctxs[p.forceNext]
		p.forceNext = -1
		if scanRunnable(c) && c.availableAt <= now {
			p.rr = c.idx
			return c
		}
	}
	switch p.Cfg.Scheme {
	case Single:
		c := &p.ctxs[0]
		if scanRunnable(c) && c.availableAt <= now {
			return c
		}
		return nil

	case Blocked, BlockedFast:
		if p.cur >= 0 {
			c := &p.ctxs[p.cur]
			if scanRunnable(c) && c.availableAt <= now {
				return c
			}
			p.cur = -1
		}
		for i, j := 0, p.rr+1; i < len(p.ctxs); i, j = i+1, j+1 {
			if j >= len(p.ctxs) {
				j = 0
			}
			c := &p.ctxs[j]
			if scanRunnable(c) && c.availableAt <= now {
				p.rr = c.idx
				p.cur = c.idx
				return c
			}
		}
		return nil

	case Interleaved, FineGrained:
		for i, j := 0, p.rr+1; i < len(p.ctxs); i, j = i+1, j+1 {
			if j >= len(p.ctxs) {
				j = 0
			}
			c := &p.ctxs[j]
			if !scanRunnable(c) {
				continue
			}
			if c.availableAt <= now || c.shadowUntil > now {
				p.rr = c.idx
				return c
			}
		}
		return nil
	}
	return nil
}

// scanIdleCause is the pre-mask idleCause: what to charge a cycle with no
// selectable context — the unavailability cause of the context that will
// wake soonest.
func scanIdleCause(p *Processor) (SlotClass, int) {
	best := int64(math.MaxInt64)
	cls := SlotIdle
	ctx := -1
	for i := range p.ctxs {
		c := &p.ctxs[i]
		if scanRunnable(c) && c.availableAt < best {
			best = c.availableAt
			cls = c.availCause
			ctx = c.idx
		}
	}
	return cls, ctx
}

// scanNextEvent is the pre-mask NextEvent: identical frontier, forced
// fetch and monopoly handling — a monopolist's stall is a region over an
// ideal fetch, and over a counting one while the stalled instruction's
// line is resident, when its slots fetch — then a scan over the contexts
// for "can anyone issue, and if not, who wakes first".
func scanNextEvent(p *Processor) (cls SlotClass, ctx int, until int64, fetches bool) {
	now := p.cycle
	if p.Cfg.NoFastForward || p.Trace != nil {
		return SlotIdle, -1, now, false
	}
	switch {
	case now < p.ifetchUntil:
		return SlotICache, p.ifetchCtx, p.boundEvent(p.ifetchUntil), false
	case now < p.shadowUntil:
		return SlotSwitch, p.shadowCtx, p.boundEvent(p.shadowUntil), false
	case now < p.stallUntil:
		return p.stallCause, p.stallCtx, p.boundEvent(p.stallUntil), false
	}
	if p.forceNext >= 0 {
		return SlotIdle, -1, now, false
	}
	scheme := p.Cfg.Scheme
	if scheme == Single || ((scheme == Blocked || scheme == BlockedFast) && p.cur >= 0) {
		c := &p.ctxs[0]
		if scheme != Single {
			c = &p.ctxs[p.cur]
		}
		if scanRunnable(c) && c.availableAt <= now {
			cls, until := SlotSwitch, c.shadowUntil
			if now >= until {
				cls, until = SlotStallShort, c.redirectUntil
			}
			if now >= until {
				th := c.thread
				if !p.idealIF {
					if p.countIF == nil || !p.countIF.InstFetchHits(th.pcAddr(th.PC)) {
						return SlotIdle, -1, now, false
					}
					fetches = true
				}
				cls, until = p.hazardRegion(th, &th.insts[th.PC], now)
			}
			if until > now {
				return cls, c.idx, p.boundEvent(until), fetches
			}
			return SlotIdle, -1, now, false
		}
		if scheme != Single {
			return SlotIdle, -1, now, false
		}
	}
	shadowSelects := scheme == Interleaved || scheme == FineGrained
	wake := int64(math.MaxInt64)
	for i := range p.ctxs {
		c := &p.ctxs[i]
		if !scanRunnable(c) {
			continue
		}
		if c.availableAt <= now || (shadowSelects && c.shadowUntil > now) {
			return SlotIdle, -1, now, false
		}
		if c.availableAt < wake {
			wake = c.availableAt
		}
	}
	cls, ctx = scanIdleCause(p)
	return cls, ctx, p.boundEvent(wake), false
}

// oracleTally counts how often the interesting paths were compared, so a
// scenario that never reaches one fails loudly instead of passing empty.
type oracleTally struct {
	slots, forced, idle, skips, counted int64
}

// checkedRun advances p to cycle end exactly like Processor.Run, checking
// every event classification and every context selection against the scan
// reference before letting the real code take the step.
func checkedRun(t *testing.T, label string, p *Processor, end int64, tally *oracleTally) {
	t.Helper()
	for p.cycle < end {
		now := p.cycle
		ref := *p
		wcls, wctx, wuntil, wfetches := scanNextEvent(&ref)
		cls, ctx, until, fetches := p.advance(false) // NextEvent, with the result it drops
		if cls != wcls || ctx != wctx || until != wuntil || fetches != wfetches {
			t.Fatalf("%s @%d: NextEvent = (%v, %d, %d, %v), scan reference (%v, %d, %d, %v)",
				label, now, cls, ctx, until, fetches, wcls, wctx, wuntil, wfetches)
		}
		if until > now {
			p.skipTo(min(until, end), cls, ctx, fetches)
			tally.skips++
			if fetches {
				tally.counted++
			}
			continue
		}
		if now >= p.ifetchUntil && now >= p.shadowUntil && now >= p.stallUntil {
			// issueSlot will reach selectContext: run both selectors on
			// copies of the processor as it stands (stale summary and
			// all) and compare pick and side effects.
			if p.forceNext >= 0 {
				tally.forced++
			}
			scan, mask := *p, *p
			want := scanSelectContext(&scan, now)
			got := mask.selectContext(now)
			wantIdx, gotIdx := -1, -1
			if want != nil {
				wantIdx = want.idx
			}
			if got != nil {
				gotIdx = got.idx
			}
			if gotIdx != wantIdx || mask.rr != scan.rr || mask.cur != scan.cur || mask.forceNext != scan.forceNext {
				t.Fatalf("%s @%d: mask pick ctx %d (rr %d cur %d force %d), scan pick ctx %d (rr %d cur %d force %d)",
					label, now, gotIdx, mask.rr, mask.cur, mask.forceNext, wantIdx, scan.rr, scan.cur, scan.forceNext)
			}
			if want == nil {
				tally.idle++
				icls, ictx := scanIdleCause(p)
				if cls, ctx, _ := mask.idleCharge(); cls != icls || ctx != ictx {
					t.Fatalf("%s @%d: idle charge (%v, %d), idleCause reference (%v, %d)",
						label, now, cls, ctx, icls, ictx)
				}
			}
			tally.slots++
		}
		p.Step()
	}
}

// oracleSchedule is one scenario's perturbation plan: a mid-run unbind and
// rebind of one context, and a save/restore into a fresh machine at a
// random 64-cycle boundary. Derived from the seed alone so the checked and
// the plain run follow the same plan.
type oracleSchedule struct {
	unbindAt, rebindAt, restoreAt, end int64
	victim                             int
}

func newOracleSchedule(rng *rand.Rand, nctx int) oracleSchedule {
	const block = 64
	return oracleSchedule{
		unbindAt:  block * (40 + rng.Int63n(60)),
		rebindAt:  block * (140 + rng.Int63n(60)),
		restoreAt: block * (240 + rng.Int63n(200)),
		end:       block * 900,
		victim:    rng.Intn(nctx),
	}
}

// yieldProg builds the kernel that reaches the write sites stallProg does
// not: explicit BACKOFF and SWITCH yields (one of them in a
// synchronization region, so the idle charge varies), and threads that
// halt at staggered times — even thread ids through HALT, odd ones through
// a TRAP with no handler installed. R4 carries the thread id.
func yieldProg(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("oracle-yield", 0x1000, 0x10_0000, 1<<22)
	arr := b.Alloc(8*8<<10, 64)
	b.La(isa.R1, arr)
	b.Sll(isa.R11, isa.R4, 13) // tid * 8 KiB
	b.Add(isa.R1, isa.R1, isa.R11)
	b.Addi(isa.R5, isa.R4, 1)
	b.Li(isa.R6, 30)
	b.Mul(isa.R5, isa.R5, isa.R6) // 30 × (tid+1) iterations
	b.Li(isa.R9, 3)
	b.Label("loop")
	b.Lw(isa.R6, isa.R1, 0)
	b.Add(isa.R7, isa.R7, isa.R6)
	b.SetYield(prog.YieldBackoff)
	b.Yield(12)
	b.Div(isa.R8, isa.R5, isa.R9)
	b.SetRegion(isa.RegionSync)
	b.SetYield(prog.YieldSwitch)
	b.Yield(9)
	b.SetRegion(isa.RegionNormal)
	b.Addi(isa.R1, isa.R1, 64)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bgtz(isa.R5, "loop")
	b.Andi(isa.R10, isa.R4, 1)
	b.Bgtz(isa.R10, "odd")
	b.Halt()
	b.Label("odd")
	b.Trap(3)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// driveOracleScenario runs a kernel through the schedule, either
// slot-checked against the scan reference or plainly through Run, and
// returns the final outcome.
func driveOracleScenario(t *testing.T, label string, pr *prog.Program, scheme Scheme, nctx int, noFF bool, s oracleSchedule, tally *oracleTally) ffOutcome {
	t.Helper()
	build := func() *uniMachine { return buildMachine(t, pr, scheme, nctx, noFF, 0) }
	m := build()
	advance := func(to int64) {
		if tally != nil {
			checkedRun(t, label, m.proc, to, tally)
		} else {
			m.proc.Run(to - m.proc.Now())
		}
	}
	advance(s.unbindAt)
	m.proc.BindThread(s.victim, nil)
	advance(s.rebindAt)
	m.proc.BindThread(s.victim, m.threads[s.victim])
	advance(s.restoreAt)
	data := m.save()
	m = build()
	// Make the fresh machine compute its summary (all contexts ready at
	// cycle 0) so the restore has something stale to invalidate.
	if m.proc.AllHalted() {
		t.Fatalf("%s: fresh machine reports all halted", label)
	}
	m.restore(t, data)
	advance(s.end)
	if err := m.proc.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return m.outcome()
}

// TestReadyMaskMatchesScanReference is the slot-by-slot equivalence of the
// event-maintained context summary and the per-slot scans it replaced,
// over two kernels × every scheme × 1/2/4/8 contexts × fast-forward
// on/off, on the real cache hierarchy (so blocking I-cache misses exercise
// the forced-fetch path and TLB refills the processor-wide stall), with a
// BindThread mid-run and a restore at a random 64-cycle boundary. Between
// them the kernels reach every write that invalidates the summary: miss
// switches and replays, BACKOFF, SWITCH, HALT, an unhandled TRAP, the
// fine-grained issue spacing, BindThread and RestoreState.
func TestReadyMaskMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260929))
	var total oracleTally
	for _, pr := range []*prog.Program{stallProg(t), yieldProg(t)} {
		for _, scheme := range []Scheme{Single, Blocked, BlockedFast, Interleaved, FineGrained} {
			counts := []int{1, 2, 4, 8}
			if scheme == Single {
				counts = []int{1}
			}
			for _, nctx := range counts {
				s := newOracleSchedule(rng, nctx)
				for _, noFF := range []bool{false, true} {
					label := fmt.Sprintf("%s/%v/%dctx/noFF=%v", pr.Name, scheme, nctx, noFF)
					var tally oracleTally
					checked := driveOracleScenario(t, label, pr, scheme, nctx, noFF, s, &tally)
					plain := driveOracleScenario(t, label, pr, scheme, nctx, noFF, s, nil)
					compareOutcomes(t, label+" checked vs Run", checked, plain)
					if tally.slots == 0 {
						t.Errorf("%s: no selection was compared", label)
					}
					if !noFF && tally.skips == 0 {
						t.Errorf("%s: no region was skipped", label)
					}
					total.slots += tally.slots
					total.forced += tally.forced
					total.idle += tally.idle
					total.skips += tally.skips
					total.counted += tally.counted
				}
			}
		}
	}
	if total.forced == 0 || total.idle == 0 || total.counted == 0 {
		t.Errorf("coverage hole: %d forced-fetch selections, %d idle selections compared, %d resident-line regions skipped",
			total.forced, total.idle, total.counted)
	}
	t.Logf("compared %d selections (%d forced, %d idle) and %d skipped regions (%d of them counting fetches)",
		total.slots, total.forced, total.idle, total.skips, total.counted)
}

func TestNextReady(t *testing.T) {
	for _, c := range []struct {
		ready uint64
		rr    int
		want  int
	}{
		{0, -1, -1},
		{0, 5, -1},
		{0b0001, -1, 0},
		{0b0001, 0, 0}, // alone: wraps back to itself
		{0b1010, -1, 1},
		{0b1010, 1, 3},
		{0b1010, 3, 1},
		{0b1010, 2, 3},
		{1 << 63, -1, 63},
		{1<<63 | 1, 62, 63},
		{1<<63 | 1, 63, 0},
		{1<<63 | 1<<7, 63, 7},
	} {
		if got := nextReady(c.ready, c.rr); got != c.want {
			t.Errorf("nextReady(%#b, %d) = %d, want %d", c.ready, c.rr, got, c.want)
		}
	}
}

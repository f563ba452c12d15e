package core

import (
	"repro/internal/isa"
)

// This file is the event-driven stall fast-forward engine. The paper's
// grids simulate tens of millions of cycles per cell, and most of those
// cycles do nothing but charge an issue slot to a stall class while every
// context waits on a memory fill. Stepping such cycles one at a time is
// O(cycles); this engine recognizes them, computes the next cycle at
// which anything can change ("the next event"), and bulk-advances the
// clock in O(1), charging the skipped slots to exactly the class and
// context issueSlot would have picked one cycle at a time.
//
// Why this is exact and not approximate:
//
//   - The memory systems (cache.Hierarchy, coherence.Node) are pull-based:
//     fills install, NAK retries resolve, TLB holds expire and chaos
//     latency draws happen inside AccessData/FetchInst calls. A cycle in
//     which no context can issue performs no such call, so skipping it
//     leaves the memory system bit-identical.
//   - A skippable ("boring") cycle's issueSlot reduces to a single
//     count(now, cls, ctx) whose (cls, ctx) is constant across the whole
//     region: the stall frontiers carry their own cause/context, and
//     the idle charge depends only on availableAt/availCause fields that
//     no boring cycle mutates.
//   - Any cycle in which a context is selectable is NOT boring — even if
//     the instruction would immediately stall on a dependency or a busy
//     functional unit — because issueSlot then calls FetchInst (which
//     counts the fetch) and mutates the round-robin pointer. Those cycles
//     run through Step as before; fuFree therefore never needs to appear
//     in the event computation.
//
// The equivalence tests (fastforward_test.go, mp/fastforward_test.go)
// assert Stats / memory-hash / arch-hash identity against NoFastForward
// runs for every scheme, uni and MP, with watchdog and chaos enabled.
//
// Busy streak. On busy code NextEvent's answer is always "step", and
// asking was 8.7 % of a Table 7 pass. Processor.Run therefore stops
// asking once two consecutive cycles have retired an instruction, and
// steps until a cycle retires nothing; the cycle after that is classified
// again. This needs no argument of its own: Step is exact for every cycle
// (it is what the skip engine is measured against), so stepping a cycle
// that NextEvent would have skipped changes nothing but host time, and the
// streak only ever steps. What it costs is the first stall cycle after a
// streak, stepped where it would have been skipped with its region; what
// it saves is a classification per busy cycle. RunUntilHalted (which must
// look at the halt state every cycle anyway) and the multiprocessor's
// lockstep driver do not streak: on the MP's interlock-bound kernels the
// stepped stall cycle costs more than the classifications saved (measured,
// ROADMAP item 1). streak_test.go compares Run against the
// classify-every-cycle loop after every call, over each way a streak ends.

// NextEvent classifies the processor's current cycle. If the returned
// until is <= Now(), the cycle may do real work and must be executed with
// Step. Otherwise every cycle in [Now(), until) is provably a pure stat
// charge of (cls, ctx) — SkipTo(until, cls, ctx) advances past them in
// O(1). until may be math.MaxInt64 when nothing will ever wake the
// processor (all threads halted or unbound); callers bound it by their
// cycle budget.
func (p *Processor) NextEvent() (cls SlotClass, ctx int, until int64) {
	now := p.cycle
	if p.Cfg.NoFastForward || p.Trace != nil {
		// Tracing observes every cycle individually, so nothing is boring.
		return SlotIdle, -1, now
	}
	// Processor-wide stall frontiers, in issueSlot's precedence order.
	// Each region charges its own cause/context; a later frontier may
	// start inside an earlier one, so only the nearest end is skippable.
	switch {
	case now < p.ifetchUntil:
		return SlotICache, p.ifetchCtx, p.boundEvent(p.ifetchUntil)
	case now < p.shadowUntil:
		return SlotSwitch, p.shadowCtx, p.boundEvent(p.shadowUntil)
	case now < p.stallUntil:
		return p.stallCause, p.stallCtx, p.boundEvent(p.stallUntil)
	}
	// Selection phase. A pending forced fetch makes the very next cycle
	// interesting (selectContext consumes it).
	if p.forceNext >= 0 {
		return SlotIdle, -1, now
	}
	// Monopolizing schemes over a pure instruction fetch: while the single
	// context (Single) or the committed current context (Blocked) is
	// available, selectContext returns it without touching rr/cur, the
	// ideal I-cache makes the re-fetch of its stalled instruction free and
	// stateless, and depStall/fuFree read only state nothing can mutate
	// while this context monopolizes the pipeline. Its interlock and
	// functional-unit stalls are therefore skippable regions — on the MP's
	// dependency-bound kernels these are the majority of all slots.
	scheme := p.Cfg.Scheme
	ready := p.readyAt(now)
	if p.idealIF && (scheme == Single || ((scheme == Blocked || scheme == BlockedFast) && p.cur >= 0)) {
		mono := 0
		if scheme != Single {
			mono = p.cur
		}
		if ready>>uint(mono)&1 != 0 {
			return p.interlockRegion(&p.ctxs[mono], now)
		}
		if scheme != Single {
			// The monopoly just broke (current context became unavailable
			// or halted): the next selectContext mutates rr/cur. Step it.
			return SlotIdle, -1, now
		}
	} else if p.cur >= 0 {
		// Blocked-scheme current context over a counting I-cache: every
		// cycle re-fetches (and re-counts), so nothing is skippable.
		return SlotIdle, -1, now
	}
	if ready != 0 {
		// Someone can take the slot.
		return SlotIdle, -1, now
	}
	// No context selectable before wake: idle region, charged to the wait
	// cause of the context that wakes first, which only a write (never a
	// boring cycle) can change before then.
	cls, ctx, wake := p.idleCharge()
	return cls, ctx, p.boundEvent(wake)
}

// interlockRegion classifies the cycle of a monopolizing, available
// context c over an ideal instruction fetch, mirroring issueSlot's
// post-selection cascade exactly: per-context shadow, fetch redirect,
// dependency interlock (depRegion, whose sub-region boundaries are the
// hazard-clear cycles), then a functional-unit conflict — which splits
// into a long-stall and a short-stall piece at the LongLatencyThreshold
// crossing, because stallClass recharges by remaining length each cycle.
// until == now means the instruction really issues this cycle.
func (p *Processor) interlockRegion(c *hwContext, now int64) (cls SlotClass, ctx int, until int64) {
	if now < c.shadowUntil {
		return SlotSwitch, c.idx, p.boundEvent(c.shadowUntil)
	}
	if now < c.redirectUntil {
		return SlotStallShort, c.idx, p.boundEvent(c.redirectUntil)
	}
	th := c.thread
	in := &th.insts[th.PC]
	dcls, duntil := depRegion(th, in, now)
	p.depTh, p.depPC, p.depCycle, p.depCls, p.depUntil = th, th.PC, now, dcls, duntil
	if duntil > now {
		return dcls, c.idx, p.boundEvent(duntil)
	}
	if tm := in.TM; tm.Unit != isa.UnitNone && p.fuFree[tm.Unit] > now {
		free := p.fuFree[tm.Unit]
		if in.Region == isa.RegionSync {
			return SlotSync, c.idx, p.boundEvent(free)
		}
		if b := free - int64(isa.LongLatencyThreshold); now < b {
			return SlotStallLong, c.idx, p.boundEvent(b)
		}
		return SlotStallShort, c.idx, p.boundEvent(free)
	}
	return SlotIdle, -1, now
}

// boundEvent caps a skip target by the memory system's earliest in-flight
// completion when the system has not declared pull-based timing
// (memsys.Completer.PullBasedTiming). For pull-based systems — both real
// ones here — completions matter to the core only through
// availableAt/regReady values fixed when the stall began, so the cap
// would merely chop long skips into completion-sized pieces: on a
// multiprocessor saturating its miss registers, the inter-fill gap across
// all nodes is a few cycles, and capping there forfeits nearly the whole
// win. The conservative path stays for any future memory system with
// push-based machinery (and is pinned by its own equivalence test).
func (p *Processor) boundEvent(until int64) int64 {
	if p.capCompletions {
		if e := p.completer.NextCompletion(p.cycle); e > p.cycle && e < until {
			until = e
		}
	}
	return until
}

// SkipTo bulk-advances the clock from Now() to target, charging every
// skipped issue slot to (cls, ctx) — the charge NextEvent reported for
// the region. Calling it with a (target, cls, ctx) not obtained from
// NextEvent breaks cycle accounting.
//
// SkipTo is deliberately branch-free with respect to observability so
// the fast-forward loops can inline it: when Observed() is true, callers
// must route skips through ObservedSkipTo instead (metrics.go), or the
// skipped region never reaches the event trace and counter series. The
// golden fast-forward-identity tests catch a missed dispatch.
func (p *Processor) SkipTo(target int64, cls SlotClass, ctx int) {
	n := target - p.cycle
	if n <= 0 {
		return
	}
	width := int64(p.Cfg.IssueWidth)
	if width < 1 {
		width = 1
	}
	p.cycle = target
	p.Stats.Cycles += n
	p.Stats.Slots[cls] += n * width
	if ctx >= 0 {
		if th := p.ctxs[ctx].thread; th != nil {
			th.Devoted += n * width
		}
	}
}

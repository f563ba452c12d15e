package core

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
//   - A cycle in which a context is selectable is not boring in general:
//     issueSlot then calls FetchInst and selectContext may move the
//     round-robin pointer. The exception is a monopolist — the single
//     context, or a blocked scheme's committed current context — whose
//     selection mutates nothing: its interlock and functional-unit stalls
//     are regions too, given what its re-fetches do. Over an ideal fetch
//     (memsys.IdealInstFetch, the multiprocessor's) they do nothing. Over a
//     counting one (memsys.CountedInstFetch, the workstation's I-cache) a
//     fetch that hits is one count and a presence test, and residency
//     changes only in a fetch that misses or between a driver's calls
//     (SchedulerInterference), never inside a region — so while the stalled
//     instruction's line is resident the region stands, and its n slots owe
//     exactly CountInstFetches(n). Behind a non-resident line, or over a
//     memory that says nothing about its fetch, the stall is no region:
//     each of its slots is fetched for real.
//
// The equivalence tests (fastforward_test.go, counted_fetch_test.go,
// mp/fastforward_test.go) assert Stats / memory-hash / arch-hash / cache
// statistics identity against NoFastForward runs for every scheme, uni and
// MP, with watchdog and chaos enabled.
//
// One cascade, three entry points. Step is the definition of a cycle.
// NextEvent and Advance are one function, advance, with and without
// permission to act: the pure classifier, and what drivers call —
// "NextEvent, and if the cycle is not boring, Step" — without walking the
// cascade twice. Where the cascade itself establishes which context takes
// the slot and what becomes of it (a monopolist, or the interleaved
// round-robin pick, at single issue), Advance performs the fetch, then
// charges the stall slot or executes the instruction there and then, with
// Step's clock and sampling bookkeeping around it; every other
// configuration it steps. issueSlot shares the fetch (fetchMisses) and the
// scoreboard and functional-unit rules (hazardRegion) with it, so they
// exist once. advance_oracle_test.go holds Advance to NextEvent-then-Step
// after every call, and no driver calls NextEvent any more
// (scripts/check.sh).
//
// Who settles a region's fetches. advance has a fourth result, fetches:
// the region's slots each re-fetch a resident line. It is a result and not
// state because NextEvent must mutate nothing. The single-processor loops
// (Run, RunUntilHalted) pass it to skipTo, which counts (target − now) ×
// width fetches beside the slot charge — under observation split at the
// sample points like the slots, so the cache/inst-fetches series reads
// stepped values. The exported NextEvent and Advance drop it: their one
// driver outside this package is the multiprocessor's, whose fetch is
// ideal, so SkipTo never owes a fetch and keeps its signature and its
// place inlined in mp.advancePlain. A driver of its own over a counting
// fetch runs the processor with Run.
//
// No busy streak. Run used to stop classifying after two retiring cycles
// and step until one retired nothing, because over the counting I-cache a
// busy cycle was classified and then stepped, and asking was 8.7 % of a
// Table 7 pass. Now asking is issuing, whatever the memory, and the streak
// is gone (ROADMAP item 1 has the measurement).

// NextEvent classifies the processor's current cycle. If the returned
// until is <= Now(), the cycle may do real work and must be executed with
// Step. Otherwise every cycle in [Now(), until) is provably a pure stat
// charge of (cls, ctx) — SkipTo(until, cls, ctx) advances past them in
// O(1). until may be math.MaxInt64 when nothing will ever wake the
// processor (all threads halted or unbound); callers bound it by their
// cycle budget. NextEvent mutates nothing: it is the oracle Advance is
// tested against, and drivers call Advance.
func (p *Processor) NextEvent() (cls SlotClass, ctx int, until int64) {
	cls, ctx, until, _ = p.advance(false)
	return
}

// Advance is NextEvent and, when the cycle is not boring, Step: a boring
// cycle returns its region untouched exactly as NextEvent does, any other
// cycle is executed and returns until <= the cycle it ran. It is what a
// driver over an ideal instruction fetch calls each cycle (over a counting
// one a region may owe fetch counts: see "who settles a region's fetches").
func (p *Processor) Advance() (cls SlotClass, ctx int, until int64) {
	cls, ctx, until, _ = p.advance(true)
	return
}

// advance is the cascade behind both: processor-wide stall frontiers,
// forced fetch, context selection from the ready mask, then — once a
// context is known to hold the slot — its miss shadow, fetch redirect,
// scoreboard and functional unit (hazardRegion). With issue false nothing
// is mutated and a cycle that may do work is only reported. With issue
// true that cycle is executed, and where the cascade got as far as the
// slot's outcome it is not walked again by Step: the instruction is fetched
// (unless the fetch is ideal) and, if that hits, the stall slot charged or
// the instruction executed here, with Step's clock and sampling bookkeeping
// around it — the same mutations as selectContext and issueSlot would make,
// in an order that differs only in when the pure hazardRegion is read.
// That covers single issue for a monopolist (the single context, or a
// blocked scheme's committed current context, whose selection touches
// nothing) and for the interleaved round-robin pick (whose selection sets
// rr); superscalar issue, NoFastForward, Trace, a forced fetch, a blocked
// scheme between monopolies and fine-grained are stepped. fetches is set on
// a region whose every slot re-fetches a resident line of a counting
// I-cache; whoever skips it owes those counts (skipTo).
func (p *Processor) advance(issue bool) (cls SlotClass, ctx int, until int64, fetches bool) {
	now := p.cycle
	if p.Cfg.NoFastForward || p.Trace != nil {
		// Tracing observes every cycle individually, so nothing is boring.
		return p.stepped(issue)
	}
	// Processor-wide stall frontiers, in issueSlot's precedence order.
	// Each region charges its own cause/context; a later frontier may
	// start inside an earlier one, so only the nearest end is skippable.
	switch {
	case now < p.ifetchUntil:
		return SlotICache, p.ifetchCtx, p.boundEvent(p.ifetchUntil), false
	case now < p.shadowUntil:
		return SlotSwitch, p.shadowCtx, p.boundEvent(p.shadowUntil), false
	case now < p.stallUntil:
		return p.stallCause, p.stallCtx, p.boundEvent(p.stallUntil), false
	}
	// A pending forced fetch makes the very next cycle interesting
	// (selectContext consumes it).
	if p.forceNext >= 0 {
		return p.stepped(issue)
	}
	// Who takes the slot, where that is known without running
	// selectContext. A monopolist's scoreboard and functional units are
	// read-only while it keeps the pipeline, so its stalls are skippable
	// regions — on the MP's dependency-bound kernels the majority of all
	// slots, on the workstation every interlock.
	ready := p.readyAt(now)
	var c *hwContext
	mono := true
	switch scheme := p.Cfg.Scheme; {
	case scheme == Single:
		if ready&1 != 0 {
			c = &p.ctxs[0]
		}
	case (scheme == Blocked || scheme == BlockedFast) && p.cur >= 0:
		if ready>>uint(p.cur)&1 == 0 {
			// The monopoly just broke (current context became
			// unavailable or halted): selectContext moves rr/cur.
			return p.stepped(issue)
		}
		c = &p.ctxs[p.cur]
	case scheme == Interleaved:
		if ready != 0 {
			c, mono = &p.ctxs[nextReady(ready, p.rr)], false
		}
	}
	if c == nil {
		if ready != 0 {
			return p.stepped(issue) // someone can take the slot
		}
		// No context selectable before wake: idle region, charged to the
		// wait cause of the context that wakes first, which only a write
		// (never a boring cycle) can change before then.
		cls, ctx, wake := p.idleCharge()
		return cls, ctx, p.boundEvent(wake), false
	}
	// c holds the slot: issueSlot's cascade from here on — its miss shadow
	// and its fetch redirect, which never fetch, then (behind the fetch,
	// unless that is ideal) the scoreboard and the functional unit. Every
	// cycle in [now, until) charges cls while c keeps the slot and its
	// fetches hit; until <= now means its instruction issues this cycle.
	th := c.thread
	in := &th.insts[th.PC]
	switch {
	case now < c.shadowUntil:
		cls, until = SlotSwitch, c.shadowUntil
	case now < c.redirectUntil:
		cls, until = SlotStallShort, c.redirectUntil
	default:
		fetches = !p.idealIF
		cls, until = p.hazardRegion(th, in, now)
	}
	// A monopolist's stall is a region if its re-fetches are known to hit.
	if mono && until > now && (!fetches || p.countIF != nil && p.countIF.InstFetchHits(th.pcAddr(th.PC))) {
		return cls, c.idx, p.boundEvent(until), fetches
	}
	if !issue || p.Cfg.IssueWidth > 1 {
		return p.stepped(issue)
	}
	p.cycle++
	p.Stats.Cycles++
	if !mono {
		p.rr = c.idx // the pick is taken whether the slot issues or stalls
	}
	switch {
	case fetches && p.fetchMisses(c, th, now): // the miss took the slot
	case until > now:
		p.count(now, cls, c.idx)
	default:
		p.execute(c, th, in, now)
	}
	if p.cycle >= p.nextSample {
		p.obsSampleTick()
	}
	return SlotIdle, -1, now, false
}

// stepped is advance's answer for a cycle that may do work and that only
// Step can decide: NextEvent reports it, Advance steps it.
func (p *Processor) stepped(issue bool) (cls SlotClass, ctx int, until int64, fetches bool) {
	now := p.cycle
	if issue {
		p.Step()
	}
	return SlotIdle, -1, now, false
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
		return p.capEvent(until)
	}
	return until
}

// capEvent is boundEvent's conservative path, kept out of line so the
// usual answer inlines.
func (p *Processor) capEvent(until int64) int64 {
	if e := p.completer.NextCompletion(p.cycle); e > p.cycle && e < until {
		return e
	}
	return until
}

// SkipTo bulk-advances the clock from Now() to target, charging every
// skipped issue slot to (cls, ctx) — the charge Advance (or NextEvent)
// reported for the region. Calling it with a (target, cls, ctx) not
// obtained from one of them breaks cycle accounting.
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

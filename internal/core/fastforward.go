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
//     leaves the memory system bit-identical, and a region ends at its own
//     until, never at a memory completion (the memsys package doc states
//     the property and why it holds).
//   - A skippable ("boring") cycle's issueSlot reduces to a single
//     count(now, cls, ctx) whose (cls, ctx) is constant across the whole
//     region: the stall frontiers carry their own cause/context, and
//     the idle charge depends only on availableAt/availCause fields that
//     no boring cycle mutates.
//   - A cycle in which a context is selectable is not boring in general:
//     issueSlot then calls FetchInst and selectContext may move the
//     round-robin pointer. The exception is a monopolist — the single
//     context, a blocked scheme's committed current context, or an
//     interleaved context that is the only selectable one and already
//     holds the round-robin pointer — whose selection mutates nothing:
//     its interlock and functional-unit stalls (and the lone interleaved
//     context's miss shadow) are regions too, given what its re-fetches
//     do. Over an ideal fetch (memsys.IdealInstFetch, the
//     multiprocessor's) they do nothing. Over a counting one
//     (memsys.CountedInstFetch, the workstation's I-cache) a fetch that
//     hits is one count and a presence test, and residency
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
// NextEvent, Advance and the single-processor loops (Run, RunUntilHalted)
// are one function, advance, at three permissions: the pure classifier of
// the current cycle; the one-cycle entry a lockstep driver calls —
// "NextEvent, and if the cycle is not boring, Step" — without walking the
// cascade twice; and the run loop, which is handed the run's end cycle and
// settles every cycle up to it itself. Where the cascade establishes which
// context takes the slot and what becomes of it (a monopolist, or the
// interleaved round-robin pick, at single issue), advance performs the
// fetch, then charges the stall slot or executes the instruction there and
// then, with Step's clock and sampling bookkeeping around it; every other
// configuration it steps. In the run loop it then goes on to the next
// cycle, skips each region through skipTo clipped to the end, and returns
// to its caller only at the end, after a cycle it handed to Step, or after
// an instruction that halted its thread, so a busy stretch costs no call
// and return per issued instruction. issueSlot shares the fetch
// (fetchMisses) and the scoreboard and functional-unit rules
// (hazardRegion) with it, so they exist once. advance_oracle_test.go holds
// Advance to NextEvent-then-Step after every call, the equivalence tests
// hold Run to the stepped machine, and no driver calls NextEvent any more
// (scripts/check.sh, which also allows the one-cycle issuing entry to
// Advance alone).
//
// Who settles a region's fetches. A region's slots may each re-fetch a
// resident line; that fetches flag is a result of the classification and
// not state, because NextEvent must mutate nothing. In the run loop advance
// settles it itself: skipTo counts (target − now) × width fetches beside
// the slot charge — under observation split at the sample points like the
// slots, so the cache/inst-fetches series reads stepped values. The
// exported NextEvent and Advance drop it: their one driver outside this
// package is the multiprocessor's, whose fetch is ideal, so SkipTo never
// owes a fetch and keeps its signature and its place inlined in
// mp.advancePlain. A driver of its own over a counting fetch runs the
// processor with Run.
//
// No busy streak. Run used to stop classifying after two retiring cycles
// and step until one retired nothing, because over the counting I-cache a
// busy cycle was classified and then stepped, and asking was 8.7 % of a
// Table 7 pass. Now asking is issuing, whatever the memory: the run loop
// still classifies every cycle it issues, and the streak is gone (ROADMAP
// item 1 has the measurement).

// NextEvent classifies the processor's current cycle. If the returned
// until is <= Now(), the cycle may do real work and must be executed with
// Step. Otherwise every cycle in [Now(), until) is provably a pure stat
// charge of (cls, ctx) — SkipTo(until, cls, ctx) advances past them in
// O(1). until may be math.MaxInt64 when nothing will ever wake the
// processor (all threads halted or unbound); callers bound it by their
// cycle budget. NextEvent mutates nothing: it is the oracle Advance is
// tested against, and drivers call Advance.
func (p *Processor) NextEvent() (cls SlotClass, ctx int, until int64) {
	cls, ctx, until, _ = p.advance(false, oneCycle)
	return
}

// Advance is NextEvent and, when the cycle is not boring, Step: a boring
// cycle returns its region untouched exactly as NextEvent does, any other
// cycle is executed and returns until <= the cycle it ran. It is what a
// driver over an ideal instruction fetch calls each cycle (over a counting
// one a region may owe fetch counts: see "who settles a region's fetches").
func (p *Processor) Advance() (cls SlotClass, ctx int, until int64) {
	cls, ctx, until, _ = p.advance(true, oneCycle)
	return
}

// oneCycle is advance's end for its one-cycle entries, NextEvent and
// Advance: no cycle lies before it, so the current cycle is settled and a
// region is reported to the caller instead of skipped.
const oneCycle = 0

// advance is the cascade behind all three entries: processor-wide stall
// frontiers, forced fetch, context selection from the ready mask, then —
// once a context is known to hold the slot — its miss shadow, fetch
// redirect, scoreboard and functional unit (hazardRegion).
//
// With issue false nothing is mutated and the current cycle is only
// reported. With issue true a cycle that may do work is executed, and
// where the cascade got as far as the slot's outcome it is not walked
// again by Step: the instruction is fetched (unless the fetch is ideal)
// and, if that hits, the stall slot charged or the instruction executed
// here, with Step's clock and sampling bookkeeping around it — the same
// mutations as selectContext and issueSlot would make, in an order that
// differs only in when the pure hazardRegion is read. That covers single
// issue for a monopolist (the single context, or a blocked scheme's
// committed current context, whose selection touches nothing) and for the
// interleaved round-robin pick (whose selection sets rr); superscalar
// issue, a forced fetch, a blocked scheme between monopolies and
// fine-grained are stepped. NoFastForward is the one setting that steps
// every cycle: observation does not (metrics.go).
//
// end is where the caller's run stops. At oneCycle advance settles the
// current cycle and returns, reporting a region (cls, ctx, until) rather
// than skipping it; fetches is then set on a region whose every slot
// re-fetches a resident line of a counting I-cache, and whoever skips it
// owes those counts (skipTo). Beyond the current cycle (Run,
// RunUntilHalted) advance keeps going: it issues in place and skips each
// region through skipTo, clipped to end, and returns at end, after a cycle
// it handed to Step, or after an in-place instruction halted its thread
// — the results are then meaningless.
func (p *Processor) advance(issue bool, end int64) (cls SlotClass, ctx int, until int64, fetches bool) {
	for {
		now := p.cycle
		fetches = false
		if p.Cfg.NoFastForward {
			return p.stepped(issue)
		}
		// Processor-wide stall frontiers, in issueSlot's precedence order.
		// Each region charges its own cause/context; a later frontier may
		// start inside an earlier one, so only the nearest end is skippable.
		switch {
		case now < p.ifetchUntil:
			cls, ctx, until = SlotICache, p.ifetchCtx, p.ifetchUntil
		case now < p.shadowUntil:
			cls, ctx, until = SlotSwitch, p.shadowCtx, p.shadowUntil
		case now < p.stallUntil:
			cls, ctx, until = p.stallCause, p.stallCtx, p.stallUntil
		case p.forceNext >= 0:
			// A pending forced fetch makes the very next cycle
			// interesting (selectContext consumes it).
			return p.stepped(issue)
		default:
			// Who takes the slot, where that is known without running
			// selectContext. A monopolist's scoreboard and functional
			// units are read-only while it keeps the pipeline, so its
			// stalls are skippable regions — on the MP's dependency-bound
			// kernels the majority of all slots, on the workstation every
			// interlock. A lone interleaved context keeps the pipeline
			// only until another context becomes selectable, so its
			// regions also end at the ready mask's validity.
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
					i := nextReady(ready, p.rr)
					c = &p.ctxs[i]
					// A lone selectable context that already holds rr is
					// picked again without a write, so it is a monopolist
					// until another context becomes selectable or it stops
					// being so itself.
					mono = ready&(ready-1) == 0 && i == p.rr
				}
			}
			if c == nil {
				if ready != 0 {
					return p.stepped(issue) // someone can take the slot
				}
				// No context selectable before wake: idle region, charged
				// to the wait cause of the context that wakes first, which
				// only a write (never a boring cycle) can change before
				// then.
				cls, ctx, until = p.idleCharge()
				break
			}
			// c holds the slot: issueSlot's cascade from here on — its miss
			// shadow and its fetch redirect, which never fetch, then
			// (behind the fetch, unless that is ideal) the scoreboard and
			// the functional unit. Every cycle in [now, until) charges cls
			// while c keeps the slot and its fetches hit; until <= now
			// means its instruction issues this cycle.
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
			ctx = c.idx
			// A monopolist's stall is a region if its re-fetches are known
			// to hit.
			if mono && until > now && (!fetches || p.countIF != nil && p.countIF.InstFetchHits(th.pcAddr(th.PC))) {
				if p.Cfg.Scheme == Interleaved {
					until = min(until, p.sel.validUntil) // a lone context's
				}
				break
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
			if p.cycle >= end || th.Halted {
				return SlotIdle, -1, now, false
			}
			continue
		}
		// Every cycle in [now, until) is a pure charge of (cls, ctx).
		if end <= now {
			return cls, ctx, until, fetches
		}
		p.skipTo(min(until, end), cls, ctx, fetches)
		if p.cycle >= end {
			return
		}
	}
}

// stepped is advance's answer for a cycle that may do work and that only
// Step can decide: NextEvent reports it, Advance and the run loop step it.
func (p *Processor) stepped(issue bool) (cls SlotClass, ctx int, until int64, fetches bool) {
	now := p.cycle
	if issue {
		p.Step()
	}
	return SlotIdle, -1, now, false
}

// SkipTo bulk-advances the clock from Now() to target, charging every
// skipped issue slot to (cls, ctx) — the charge Advance (or NextEvent)
// reported for the region, with target at most its until (a driver may
// stop short at a budget or a block boundary). Calling it with a (target,
// cls, ctx) not obtained from one of them breaks cycle accounting.
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

package core

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/guard"
	"repro/internal/snapshot"
)

// This file is the processor's side of the simulation-hardening layer
// (internal/guard): state snapshots for structured diagnostics, pipeline
// invariant checking, and a guarded run loop with a liveness watchdog.

// HashArchState folds the thread's architectural state — registers, PC,
// and halt status — into a running FNV-1a digest h (snapshot.Fold; seed
// with guard-style callers' mem.Memory Hash, or snapshot.FNVOffset).
// Chaos-mode tests combine these with the memory digest to assert that
// timing perturbation never changes architectural results.
func (t *Thread) HashArchState(h uint64) uint64 {
	halted := uint64(0)
	if t.Halted {
		halted = 1
	}
	h = snapshot.Fold(snapshot.Fold(h, uint64(uint32(t.PC))), halted)
	for _, r := range t.Regs {
		h = snapshot.Fold(h, r)
	}
	return h
}

// MachineHash digests every machine layer reachable from the processor
// into one diagnostic hash: functional memory, the memory system when it
// can hash itself (cache.Hierarchy implements guard.StateHasher; a
// multiprocessor's shared coherence state hashes once at the fabric
// level instead, see mp.machineHash), and each bound thread's
// architectural state. The fuzzer's fork oracle and the
// snapshot-equivalence tests compare these across machines; diagnostics
// record them so two reports of the "same" failure can be told apart.
func (p *Processor) MachineHash() uint64 {
	layers := []uint64{p.FMem.Hash()}
	if hs, ok := p.Mem.(guard.StateHasher); ok {
		layers = append(layers, hs.Hash())
	}
	h := guard.MachineHash(layers...)
	for i := range p.ctxs {
		if th := p.ctxs[i].thread; th != nil {
			h = th.HashArchState(h)
		}
	}
	return h
}

// UsefulProgress is the watchdog's progress counter: issue slots spent on
// useful (non-synchronization) instructions. Spin-wait code retires
// synchronization instructions forever, so a deadlocked machine still
// "retires" — but it stops retiring useful work, which is what this
// counter tracks.
func (p *Processor) UsefulProgress() int64 { return p.Stats.Slots[SlotBusy] }

// Snapshot captures the processor's architectural position for a
// diagnostic: per-context thread, PC, current instruction, availability
// and cause, the nonzero slot breakdown, and — when the memory system can
// report them — its outstanding misses.
func (p *Processor) Snapshot() guard.ProcState {
	ps := guard.ProcState{ID: p.ID, Cycle: p.cycle, Slots: map[string]int64{}}
	for cls, n := range p.Stats.Slots {
		if n != 0 {
			ps.Slots[SlotClass(cls).String()] = n
		}
	}
	for i := range p.ctxs {
		c := &p.ctxs[i]
		cs := guard.CtxState{Ctx: c.idx}
		if th := c.thread; th != nil {
			cs.Thread = th.Name
			cs.PC = th.PC
			cs.Halted = th.Halted
			cs.Retired = th.Retired
			cs.AvailableAt = c.availableAt
			cs.Cause = c.availCause.String()
			if th.PC >= 0 && th.PC < len(th.Prog.Insts) {
				cs.PCAddr = th.Prog.PCAddr(th.PC)
				cs.Inst = th.Prog.Insts[th.PC].String()
			}
		}
		ps.Ctxs = append(ps.Ctxs, cs)
	}
	if mr, ok := p.Mem.(guard.MissReporter); ok {
		ps.Misses = mr.OutstandingMisses()
	}
	return ps
}

// CheckInvariants verifies the pipeline's interlock bookkeeping:
//
//   - every issue slot is accounted to exactly one class (the slot sum
//     equals cycles × issue width);
//   - the blocked-scheme current context, round-robin pointer and forced
//     fetch target are in range;
//   - every bound thread's PC addresses a real instruction;
//   - the zero register never acquires a scoreboard dependency;
//   - a halted thread is never the blocked scheme's current context;
//   - the cached context-selection summary (ready mask, wake cycle, idle
//     charge) matches a recomputation from the contexts.
//
// Violations come back as *guard.SimError with a full snapshot attached.
func (p *Processor) CheckInvariants() error {
	fail := func(ctx, pc int, format string, args ...any) error {
		return guard.NewSimError("core.invariant", fmt.Errorf(format, args...)).
			At(p.cycle).On(p.ID, ctx, pc).
			WithDiag(&guard.Diagnostic{
				Reason:      "pipeline invariant violation",
				Cycle:       p.cycle,
				Scheme:      p.Cfg.Scheme.String(),
				Procs:       []guard.ProcState{p.Snapshot()},
				MachineHash: p.MachineHash(),
			})
	}
	width := int64(p.Cfg.IssueWidth)
	if width < 1 {
		width = 1
	}
	if got, want := p.Stats.TotalSlots(), p.Stats.Cycles*width; got != want {
		return fail(-1, -1, "slot accounting: %d slots for %d cycles × width %d (want %d)",
			got, p.Stats.Cycles, width, want)
	}
	n := len(p.ctxs)
	if p.cur < -1 || p.cur >= n {
		return fail(-1, -1, "blocked current context %d out of range [-1,%d)", p.cur, n)
	}
	if p.rr < -1 || p.rr >= n {
		return fail(-1, -1, "round-robin pointer %d out of range [-1,%d)", p.rr, n)
	}
	if p.forceNext < -1 || p.forceNext >= n {
		return fail(-1, -1, "forced fetch context %d out of range [-1,%d)", p.forceNext, n)
	}
	for i := range p.ctxs {
		c := &p.ctxs[i]
		th := c.thread
		if th == nil {
			continue
		}
		if th.PC < 0 || th.PC >= len(th.Prog.Insts) {
			return fail(c.idx, th.PC, "thread %s PC %d outside program %s [0,%d)",
				th.Name, th.PC, th.Prog.Name, len(th.Prog.Insts))
		}
		if th.regReady[0] != 0 {
			return fail(c.idx, th.PC, "thread %s: scoreboard dependency on R0", th.Name)
		}
		if th.Halted && p.cur == c.idx {
			return fail(c.idx, th.PC, "halted thread %s is the blocked scheme's current context", th.Name)
		}
	}
	// Whatever the context summary claims to know must equal a computation
	// from scratch (its validity bound may only be early, never late): a
	// difference means a write to a context or to Thread.Halted skipped
	// availabilityChanged / invalidateReady.
	fresh := *p
	fresh.sel = ctxSummary{}
	fresh.readyAt(p.cycle)
	fresh.idleCharge()
	got, want := p.sel, fresh.sel
	switch {
	case got.membersKnown && (got.bound != want.bound || got.live != want.live),
		p.cycle < got.validUntil && (got.ready != want.ready || got.validUntil > want.validUntil),
		got.idleKnown && (got.wake != want.wake || got.idleCls != want.idleCls || got.idleCtx != want.idleCtx):
		return fail(-1, -1, "stale context summary %+v, recomputed %+v", got, want)
	}
	return nil
}

// RunGuarded is the hardened uniprocessor runner: it steps until every
// bound thread halts or limit cycles elapse (returning the cycles run and
// whether everything halted, like RunUntilHalted), while polling the
// liveness watchdog and — when enabled — the pipeline and memory-system
// invariant checkers every opts.CheckEvery cycles. A watchdog trip or an
// invariant violation returns a *guard.SimError carrying a structured
// diagnostic. opts.WatchdogWindow zero leaves the watchdog off: a
// cycle-bounded uniprocessor run cannot hang, so the watchdog is an
// opt-in early-abort for stuck programs.
func (p *Processor) RunGuarded(limit int64, opts guard.Options) (int64, bool, error) {
	return p.RunGuardedCtx(context.Background(), limit, opts)
}

// RunGuardedCtx is RunGuarded with cooperative cancellation: when ctx
// can be canceled, the run additionally polls ctx.Done() every
// engine.BlockCycles cycles and returns a guard.OpCanceled SimError
// (wrapping ctx.Err(), so errors.Is sees context.Canceled) within one
// block of the cancellation. A background/detached context leaves the
// single-RunUntilHalted-per-chunk path untouched.
//
// The loop itself lives in internal/engine: this method only supplies
// the uniprocessor's Advance closure and diagnostic hooks, so guard
// boundaries, cancellation latency, and the watchdog report are defined
// in one place for every driver.
func (p *Processor) RunGuardedCtx(ctx context.Context, limit int64, opts guard.Options) (int64, bool, error) {
	var checkers []guard.InvariantChecker
	if opts.InvariantsOn() {
		checkers = append(checkers, p)
		if ic, ok := p.Mem.(guard.InvariantChecker); ok {
			checkers = append(checkers, ic)
		}
	}
	start := p.cycle
	eng := &engine.Engine{
		// RunUntilHalted, not Run: the chunked loop must stop on the
		// exact halt cycle, or guarded runs would overshoot to the next
		// chunk boundary and report inflated cycle counts.
		Advance: func(now, target int64) int64 {
			p.RunUntilHalted(target - now)
			return p.cycle
		},
		Halted:     p.AllHalted,
		Watchdog:   guard.NewWatchdog(opts.ResolveWatchdog(0)),
		Progress:   p.UsefulProgress,
		Checkers:   checkers,
		GuardEvery: opts.CheckCadence(),
		GuardAtEnd: true,
		Describe: func(d *guard.Diagnostic) {
			d.Scheme = p.Cfg.Scheme.String()
			d.Procs = []guard.ProcState{p.Snapshot()}
			d.MachineHash = p.MachineHash()
		},
	}
	halted, err := eng.Run(ctx, start, start+limit)
	return p.cycle - start, halted, err
}

var _ guard.InvariantChecker = (*Processor)(nil)

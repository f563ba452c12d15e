package core

import (
	"repro/internal/snapshot"
)

// This file holds the processor layer's state walks for
// checkpoint/restore.
//
// The contract: restore targets a freshly constructed machine of the
// identical shape — same Config, same programs, threads rebuilt and
// bound to the same context slots by the driver — and a snapshot is
// taken only at a 64-cycle block boundary (between blocks of
// runCancelable / the MP lockstep loop), so the watchdog, cancellation
// and metrics cadences of a restored run are position-identical to an
// uninterrupted one by construction. Derived state is never serialized:
// a thread's decoded-instruction cache comes from its program, the
// processor's completer/idealIF/countIF probes from its memory system, the
// context-selection summary (ready mask, wake cycle, idle charge) is
// recomputed from the restored contexts on first use.
//
// Observability state (metrics cursors, event traces) is deliberately
// not serialized: drivers fall back to from-scratch simulation for
// instrumented runs, which Processor.SaveState enforces by panicking —
// forking an observed run silently would truncate its series.

// Section tags for the core layer.
const (
	sectionThread    = 0x54485231 // "THR1"
	sectionProcessor = 0x50524f31 // "PRO1"
	sectionBTB       = 0x42544231 // "BTB1"
)

// SaveState serializes the thread's architectural and accounting state
// into w.
func (t *Thread) SaveState(w *snapshot.Writer) { t.State(snapshot.Saving(w)) }

// RestoreState overwrites the thread's mutable state from a snapshot.
// The thread must have been built from the same program (NewThread with
// the same name); decode fails if the name differs.
func (t *Thread) RestoreState(r *snapshot.Reader) { t.State(snapshot.Restoring(r)) }

// State visits the thread's architectural and accounting state. The
// program itself is not state — the restoring driver rebuilds threads
// from the same programs — but the name is visited, as a shape check.
func (t *Thread) State(c snapshot.Codec) {
	c.Section(sectionThread)
	c.ShapeStr("thread name", t.Name)
	c.Int(&t.PC)
	c.U64s(t.Regs[:])
	c.Bool(&t.Halted)
	c.I64(&t.HaltedAt)
	c.Int(&t.EPC)
	c.Int(&t.TrapHandler)
	c.I32(&t.TrapCode)
	c.I64(&t.Retired)
	c.I64(&t.Devoted)
	c.I64s(t.regReady[:])
	for i := range t.regStall {
		c.U8((*uint8)(&t.regStall[i]))
	}
}

// state visits the BTB arrays; geometry must match.
func (b *BTB) state(c snapshot.Codec) {
	c.Section(sectionBTB)
	c.ShapeU32("BTB mask", b.mask)
	c.U32s(b.tags)
	for i := range b.targets {
		c.I32(&b.targets[i])
	}
	c.Bools(b.valid)
}

// SaveState serializes the processor's pipeline and accounting state
// into w. It panics on an observed processor: see the file comment.
func (p *Processor) SaveState(w *snapshot.Writer) { p.State(snapshot.Saving(w)) }

// RestoreState overwrites the processor's state from a snapshot. The
// driver must already have bound the same threads to the same context
// slots (BindThread resets per-context availability, which this restore
// then overwrites), and must restore thread contents separately.
func (p *Processor) RestoreState(r *snapshot.Reader) { p.State(snapshot.Restoring(r)) }

// State visits the processor's pipeline and accounting state: clock,
// context-selection pointers, stall frontiers, functional-unit
// reservations, per-context availability (including the miss-shadow and
// redirect windows and the replay discipline), the BTB, and Stats.
// Thread contents and bindings are the driver's to visit — the driver
// owns the thread list and knows which thread sits in which context
// slot.
func (p *Processor) State(c snapshot.Codec) {
	if c.Saving() && p.Observed() {
		panic("core: SaveState on an observed processor (drivers must fall back to scratch simulation)")
	}
	c.Section(sectionProcessor)
	// Shape checks: a snapshot must only restore into a processor whose
	// timing-relevant configuration is identical.
	c.ShapeU8("scheme", uint8(p.Cfg.Scheme))
	c.ShapeI64("contexts", int64(len(p.ctxs)))
	c.ShapeI64("issue width", int64(p.Cfg.IssueWidth))
	c.ShapeI64("pipeline depth", int64(p.Cfg.PipelineDepth))

	c.I64(&p.cycle)
	c.Int(&p.rr)
	c.Int(&p.cur)
	c.Int(&p.forceNext)
	c.I64(&p.ifetchUntil)
	c.Int(&p.ifetchCtx)
	c.I64(&p.shadowUntil)
	c.Int(&p.shadowCtx)
	c.I64(&p.stallUntil)
	c.Int(&p.stallCtx)
	c.U8((*uint8)(&p.stallCause))
	c.I64s(p.fuFree[:])
	for i := range p.ctxs {
		hc := &p.ctxs[i]
		c.I64(&hc.availableAt)
		c.U8((*uint8)(&hc.availCause))
		c.I64(&hc.shadowUntil)
		c.I64(&hc.redirectUntil)
		c.Int(&hc.replayPC)
	}
	if c.Present("BTB", p.btb != nil) {
		p.btb.state(c)
	}
	p.Stats.state(c)
	if !c.Saving() {
		// The context-selection summary described the overwritten
		// contexts.
		p.invalidateReady()
	}
}

// state visits the issue-slot accounting.
func (s *Stats) state(c snapshot.Codec) {
	c.I64(&s.Cycles)
	c.I64s(s.Slots[:])
	c.I64(&s.Retired)
	c.I64(&s.Branches)
	c.I64(&s.Mispredicts)
	c.I64(&s.MissSwitches)
	c.I64(&s.ExplicitSwitches)
	c.I64(&s.Backoffs)
}

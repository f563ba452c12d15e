package core

import (
	"repro/internal/snapshot"
)

// This file serializes the processor layer for checkpoint/restore.
//
// The contract: restore targets a freshly constructed machine of the
// identical shape — same Config, same programs, threads rebuilt and
// bound to the same context slots by the driver — and a snapshot is
// taken only at a 64-cycle block boundary (between blocks of
// runCancelable / the MP lockstep loop), so the watchdog, cancellation
// and metrics cadences of a restored run are position-identical to an
// uninterrupted one by construction. Derived state is never serialized:
// a thread's decoded-instruction cache comes from its program, the
// processor's completer/idealIF probes from its memory system, the
// context-selection summary (ready mask, wake cycle, idle charge) is
// recomputed from the restored contexts on first use, and the
// dependency-region memo is dropped (it only short-circuits the Step
// immediately after the NextEvent that computed it, and no Step follows
// a restore without a fresh NextEvent).
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

// SaveState serializes the thread's architectural and accounting state.
// The program itself is not serialized — the restoring driver rebuilds
// threads from the same programs — but the name is, as a shape check.
func (t *Thread) SaveState(w *snapshot.Writer) {
	w.Section(sectionThread)
	w.String(t.Name)
	w.Int(t.PC)
	for _, v := range t.Regs {
		w.U64(v)
	}
	w.Bool(t.Halted)
	w.I64(t.HaltedAt)
	w.Int(t.EPC)
	w.Int(t.TrapHandler)
	w.U32(uint32(t.TrapCode))
	w.I64(t.Retired)
	w.I64(t.Devoted)
	for _, v := range t.regReady {
		w.I64(v)
	}
	for _, v := range t.regStall {
		w.U8(uint8(v))
	}
}

// RestoreState overwrites the thread's mutable state from a snapshot.
// The thread must have been built from the same program (NewThread with
// the same name); decode fails if the name differs.
func (t *Thread) RestoreState(r *snapshot.Reader) {
	r.Section(sectionThread)
	r.ExpectStr("thread name", r.String(), t.Name)
	t.PC = r.Int()
	for i := range t.Regs {
		t.Regs[i] = r.U64()
	}
	t.Halted = r.Bool()
	t.HaltedAt = r.I64()
	t.EPC = r.Int()
	t.TrapHandler = r.Int()
	t.TrapCode = int32(r.U32())
	t.Retired = r.I64()
	t.Devoted = r.I64()
	for i := range t.regReady {
		t.regReady[i] = r.I64()
	}
	for i := range t.regStall {
		t.regStall[i] = SlotClass(r.U8())
	}
}

// saveState serializes the BTB arrays.
func (b *BTB) saveState(w *snapshot.Writer) {
	w.Section(sectionBTB)
	w.U32(b.mask)
	for _, v := range b.tags {
		w.U32(v)
	}
	for _, v := range b.targets {
		w.U32(uint32(v))
	}
	for _, v := range b.valid {
		w.Bool(v)
	}
}

// restoreState overwrites the BTB arrays; geometry must match.
func (b *BTB) restoreState(r *snapshot.Reader) {
	r.Section(sectionBTB)
	r.Expect("BTB mask", int64(r.U32()), int64(b.mask))
	for i := range b.tags {
		b.tags[i] = r.U32()
	}
	for i := range b.targets {
		b.targets[i] = int32(r.U32())
	}
	for i := range b.valid {
		b.valid[i] = r.Bool()
	}
}

// SaveState serializes the processor's pipeline and accounting state:
// clock, context-selection pointers, stall frontiers, functional-unit
// reservations, per-context availability (including the miss-shadow and
// redirect windows and the replay discipline), the BTB, and Stats.
// Thread contents and bindings are the driver's to serialize — the
// driver owns the thread list and knows which thread sits in which
// context slot.
func (p *Processor) SaveState(w *snapshot.Writer) {
	if p.Observed() {
		panic("core: SaveState on an observed processor (drivers must fall back to scratch simulation)")
	}
	w.Section(sectionProcessor)
	// Shape checks: a snapshot must only restore into a processor whose
	// timing-relevant configuration is identical.
	w.U8(uint8(p.Cfg.Scheme))
	w.Int(len(p.ctxs))
	w.Int(p.Cfg.IssueWidth)
	w.Int(p.Cfg.PipelineDepth)

	w.I64(p.cycle)
	w.Int(p.rr)
	w.Int(p.cur)
	w.Int(p.forceNext)
	w.I64(p.ifetchUntil)
	w.Int(p.ifetchCtx)
	w.I64(p.shadowUntil)
	w.Int(p.shadowCtx)
	w.I64(p.stallUntil)
	w.Int(p.stallCtx)
	w.U8(uint8(p.stallCause))
	for _, v := range p.fuFree {
		w.I64(v)
	}
	for i := range p.ctxs {
		c := &p.ctxs[i]
		w.I64(c.availableAt)
		w.U8(uint8(c.availCause))
		w.I64(c.shadowUntil)
		w.I64(c.redirectUntil)
		w.Int(c.replayPC)
	}
	w.Bool(p.btb != nil)
	if p.btb != nil {
		p.btb.saveState(w)
	}
	p.Stats.saveState(w)
}

// RestoreState overwrites the processor's state from a snapshot. The
// driver must already have bound the same threads to the same context
// slots (BindThread resets per-context availability, which this restore
// then overwrites), and must restore thread contents separately.
func (p *Processor) RestoreState(r *snapshot.Reader) {
	r.Section(sectionProcessor)
	r.Expect("scheme", int64(r.U8()), int64(p.Cfg.Scheme))
	r.Expect("contexts", int64(r.Int()), int64(len(p.ctxs)))
	r.Expect("issue width", int64(r.Int()), int64(p.Cfg.IssueWidth))
	r.Expect("pipeline depth", int64(r.Int()), int64(p.Cfg.PipelineDepth))

	p.cycle = r.I64()
	p.rr = r.Int()
	p.cur = r.Int()
	p.forceNext = r.Int()
	p.ifetchUntil = r.I64()
	p.ifetchCtx = r.Int()
	p.shadowUntil = r.I64()
	p.shadowCtx = r.Int()
	p.stallUntil = r.I64()
	p.stallCtx = r.Int()
	p.stallCause = SlotClass(r.U8())
	for i := range p.fuFree {
		p.fuFree[i] = r.I64()
	}
	for i := range p.ctxs {
		c := &p.ctxs[i]
		c.availableAt = r.I64()
		c.availCause = SlotClass(r.U8())
		c.shadowUntil = r.I64()
		c.redirectUntil = r.I64()
		c.replayPC = r.Int()
	}
	hadBTB := r.Bool()
	if r.Err() == nil {
		r.Expect("BTB presence", b2i(hadBTB), b2i(p.btb != nil))
	}
	if hadBTB && p.btb != nil {
		p.btb.restoreState(r)
	}
	p.Stats.restoreState(r)
	// Drop the dependency-region memo: it is only valid for the Step
	// immediately following the NextEvent that computed it. Likewise the
	// context-selection summary, which describes the overwritten contexts.
	p.depTh = nil
	p.invalidateReady()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// saveState serializes the issue-slot accounting.
func (s *Stats) saveState(w *snapshot.Writer) {
	w.I64(s.Cycles)
	for _, v := range s.Slots {
		w.I64(v)
	}
	w.I64(s.Retired)
	w.I64(s.Branches)
	w.I64(s.Mispredicts)
	w.I64(s.MissSwitches)
	w.I64(s.ExplicitSwitches)
	w.I64(s.Backoffs)
}

func (s *Stats) restoreState(r *snapshot.Reader) {
	s.Cycles = r.I64()
	for i := range s.Slots {
		s.Slots[i] = r.I64()
	}
	s.Retired = r.I64()
	s.Branches = r.I64()
	s.Mispredicts = r.I64()
	s.MissSwitches = r.I64()
	s.ExplicitSwitches = r.I64()
	s.Backoffs = r.I64()
}

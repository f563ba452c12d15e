package core

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// Observability integration. The processor registers its counters with a
// per-processor metrics registry and feeds the event sink from the same
// three places that mutate slot accounting: count, busySlot and SkipTo.
// The fast-forward engine stays enabled under instrumentation — unlike the
// Trace hook, which observes individual cycles and therefore forces
// stepping — because every hook is defined so a bulk-charged region
// produces exactly the samples and events of a stepped one:
//
//   - Samples are keyed to cycles (a sample at cycle S reads the counters
//     after every cycle < S completed). Step samples when it crosses a
//     sample point; SkipTo splits its bulk charge at sample points.
//   - Charges flow through the sink's span coalescer, so per-cycle and
//     bulk charges of one stall region emit the identical span event.
//   - All other events originate in cycles that perform memory accesses
//     or issue instructions — never-skippable cycles that both modes step.

// AttachMetrics registers this processor's counters with m and installs
// its sampler and event sink. Call before running; nil is a no-op.
func (p *Processor) AttachMetrics(m *metrics.ProcMetrics) {
	if m == nil {
		return
	}
	p.obs = m
	p.obsSink = m.Sink
	if m.Sampler != nil {
		p.sampleEvery = m.Every
		p.nextSample = (p.cycle/m.Every + 1) * m.Every
	}
	reg := m.Reg
	reg.Register("cycles", &p.Stats.Cycles)
	reg.Register("retired", &p.Stats.Retired)
	for c := 0; c < NumSlotClasses; c++ {
		reg.Register("slots/"+slotNames[c], &p.Stats.Slots[c])
	}
	reg.Register("branches", &p.Stats.Branches)
	reg.Register("mispredicts", &p.Stats.Mispredicts)
	reg.Register("switches/miss", &p.Stats.MissSwitches)
	reg.Register("switches/explicit", &p.Stats.ExplicitSwitches)
	reg.Register("switches/backoff", &p.Stats.Backoffs)
	p.ctxSlots = make([]int64, len(p.ctxs)*NumSlotClasses)
	for k := range p.ctxs {
		for c := 0; c < NumSlotClasses; c++ {
			reg.Register(fmt.Sprintf("ctx%d/%s", k, slotNames[c]), &p.ctxSlots[k*NumSlotClasses+c])
		}
	}
}

// obsCount observes one charged issue slot (count's slow half).
func (p *Processor) obsCount(now int64, cls SlotClass, ctx int) {
	if ctx >= 0 {
		p.ctxSlots[ctx*NumSlotClasses+int(cls)]++
	}
	if p.obsSink != nil {
		p.obsSink.Charge(now, slotNames[cls], ctx, 1)
	}
}

// obsIssue observes one issued instruction (busySlot's slow half).
func (p *Processor) obsIssue(now int64, cls SlotClass, c *hwContext, th *Thread) {
	p.ctxSlots[c.idx*NumSlotClasses+int(cls)]++
	if p.obsSink != nil {
		p.obsSink.Emit(metrics.Event{
			Cycle: now, Kind: metrics.KindIssue, Ctx: c.idx,
			Class: slotNames[cls], PC: th.pcAddr(th.PC),
		})
	}
}

// obsCtxSwitch records a context becoming unavailable (miss switch,
// SWITCH or BACKOFF): cause is the slot class charged while it waits, wake
// the cycle it becomes available again. Callers guard on p.obsSink.
func (p *Processor) obsCtxSwitch(now int64, ctx int, cause SlotClass, wake int64) {
	p.obsSink.Emit(metrics.Event{
		Cycle: now, Kind: metrics.KindCtxSwitch, Ctx: ctx,
		Class: slotNames[cause], Arg: wake,
	})
}

// obsSampleTick fires the sampler at every sample point the clock has
// crossed (Step's slow half; the fast path is one compare against
// nextSample, which is MaxInt64 whenever sampling is off).
func (p *Processor) obsSampleTick() {
	for p.cycle >= p.nextSample {
		p.obs.Sampler.SampleAt(p.nextSample)
		p.nextSample += p.sampleEvery
	}
}

// Observed reports whether the processor is attached to a metrics
// collector. Fast-forward drivers dispatch on it: SkipTo when false,
// ObservedSkipTo when true.
func (p *Processor) Observed() bool { return p.obs != nil }

// ObservedSkipTo is SkipTo under observability. It is a separate method
// (rather than a branch inside SkipTo) so the uninstrumented SkipTo stays
// within the inlining budget of the fast-forward loops.
func (p *Processor) ObservedSkipTo(target int64, cls SlotClass, ctx int) {
	p.obsSkip(target, cls, ctx, false)
}

// obsSkip is SkipTo under observability: the whole region becomes one
// coalesced charge-span event, and the counter charge is split at sample
// points so each sample reads exactly the values a stepped run shows at
// that cycle. fetches says the region's slots each re-fetch a resident
// instruction line (skipTo): the fetch count is split the same way.
func (p *Processor) obsSkip(target int64, cls SlotClass, ctx int, fetches bool) {
	if target <= p.cycle {
		return
	}
	var th *Thread
	if ctx >= 0 {
		th = p.ctxs[ctx].thread
	}
	if p.obsSink != nil {
		p.obsSink.Charge(p.cycle, slotNames[cls], ctx, target-p.cycle)
	}
	for p.nextSample <= target {
		p.obsBulkCharge(p.nextSample-p.cycle, cls, ctx, th, fetches)
		p.obs.Sampler.SampleAt(p.nextSample)
		p.nextSample += p.sampleEvery
	}
	p.obsBulkCharge(target-p.cycle, cls, ctx, th, fetches)
}

func (p *Processor) obsBulkCharge(n int64, cls SlotClass, ctx int, th *Thread, fetches bool) {
	if n <= 0 {
		return
	}
	slots := n * max(int64(p.Cfg.IssueWidth), 1)
	p.cycle += n
	p.Stats.Cycles += n
	p.Stats.Slots[cls] += slots
	if th != nil {
		th.Devoted += slots
	}
	if ctx >= 0 {
		p.ctxSlots[ctx*NumSlotClasses+int(cls)] += slots
	}
	if fetches {
		p.countIF.CountInstFetches(slots)
	}
}

// noSample is nextSample's value while sampling is disabled.
const noSample = int64(math.MaxInt64)

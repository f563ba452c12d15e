package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// Scheme selects the context-multiplexing policy (paper §2-3).
type Scheme uint8

// Schemes.
const (
	// Single is the single-context baseline: one thread, lockup-free
	// data cache, stalls exposed through the scoreboard.
	Single Scheme = iota
	// Blocked runs one context until a cache miss, then flushes the
	// pipeline (switch cost = pipeline depth) and switches (§2.2).
	Blocked
	// BlockedFast is the pipeline-register-replication variant of the
	// blocked scheme with a one-cycle switch (§2.2's "brute force"
	// design point, used for ablation).
	BlockedFast
	// Interleaved issues round-robin from all available contexts each
	// cycle and squashes only the faulting context's instructions on a
	// miss (§3, the paper's proposal).
	Interleaved
	// FineGrained is the HEP-style baseline (§2.1): cycle-by-cycle
	// switching, but no data cache (every reference pays memory
	// latency) and one instruction per context in the pipeline.
	FineGrained

	// NumSchemes is the number of schemes.
	NumSchemes = iota
)

var schemeNames = [NumSchemes]string{"single", "blocked", "blocked-fast", "interleaved", "fine-grained"}

func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return "scheme(?)"
}

// ParseScheme is the inverse of String, for the commands' -scheme flags.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return Scheme(s), nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (%s)", name, strings.Join(schemeNames[:], ", "))
}

// YieldMode maps a scheme to the latency-tolerance instruction its
// compilation uses.
func (s Scheme) YieldMode() prog.YieldMode {
	switch s {
	case Blocked, BlockedFast:
		return prog.YieldSwitch
	case Interleaved:
		return prog.YieldBackoff
	default:
		return prog.YieldNone
	}
}

// Config parameterizes a processor.
type Config struct {
	Scheme   Scheme
	Contexts int

	// PipelineDepth is the integer pipeline depth (7: IF1 IF2 RF EX DF1
	// DF2 WB). A data miss is detected in WB, so the miss shadow — the
	// slots wasted between a miss issuing and being detected — spans
	// PipelineDepth slots.
	PipelineDepth int

	// MispredictPenalty is the fetch-redirect cost of a mispredicted
	// branch (3: resolution in EX).
	MispredictPenalty int

	// ExplicitSwitchCost is the blocked scheme's SWITCH instruction cost
	// (3, Table 4). The interleaved BACKOFF costs its own slot (1).
	ExplicitSwitchCost int

	// BTBEntries sizes the branch target buffer (2048). Zero disables
	// branch prediction (every taken branch pays the redirect).
	BTBEntries int

	// BlockedFlushCost, when positive, overrides the blocked scheme's
	// miss-switch cost (normally the pipeline depth; 1 for BlockedFast).
	// Used by the switch-cost sensitivity sweep.
	BlockedFlushCost int

	// IssueWidth is the number of issue slots per cycle (default 1, the
	// paper's processor). Values above 1 model the paper's §7 discussion
	// of combining multiple contexts with superscalar issue: each cycle
	// up to IssueWidth instructions issue, round-robin across available
	// contexts (and back-to-back from one context when it is alone and
	// its instructions are independent).
	IssueWidth int

	// FineGrainedMemLatency is the fixed memory latency of the
	// fine-grained scheme, which supports no data cache.
	FineGrainedMemLatency int

	// NoFastForward disables the event-driven stall fast-forward
	// (fastforward.go) and steps every cycle individually. The results
	// are identical either way — the equivalence tests assert it — so
	// this exists for those tests and for benchmarking the skip engine
	// itself.
	NoFastForward bool
}

// DefaultConfig returns the paper's processor with the given scheme and
// context count.
func DefaultConfig(s Scheme, contexts int) Config {
	return Config{
		Scheme:                s,
		Contexts:              contexts,
		PipelineDepth:         7,
		MispredictPenalty:     3,
		ExplicitSwitchCost:    3,
		BTBEntries:            2048,
		FineGrainedMemLatency: 34,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Contexts < 1:
		return fmt.Errorf("core: need at least one context")
	case c.Contexts > maxContexts:
		return fmt.Errorf("core: %d contexts exceed the supported maximum of %d", c.Contexts, maxContexts)
	case c.Scheme == Single && c.Contexts != 1:
		return fmt.Errorf("core: single scheme requires exactly one context")
	case int(c.Scheme) >= NumSchemes:
		return fmt.Errorf("core: unknown scheme %d", c.Scheme)
	case c.PipelineDepth < 2:
		return fmt.Errorf("core: pipeline depth too small")
	case c.BTBEntries != 0 && c.BTBEntries&(c.BTBEntries-1) != 0:
		return fmt.Errorf("core: BTB entries must be zero or a power of two")
	case c.IssueWidth < 0 || c.IssueWidth > 8:
		return fmt.Errorf("core: issue width %d out of range [0,8]", c.IssueWidth)
	}
	return nil
}

// CheckOverride reports whether c can stand in for the configuration a
// machine derives from its own scheme and context count. The driver binds
// that many threads and compiles their programs for that scheme's yield
// instruction, so an override may change anything but those two.
func (c Config) CheckOverride(s Scheme, contexts int) error {
	if c.Scheme != s || c.Contexts != contexts {
		return fmt.Errorf("core override is %v with %d contexts, the machine is %v with %d",
			c.Scheme, c.Contexts, s, contexts)
	}
	return nil
}

// ctxSummary is what context selection and event classification need to
// know about the contexts, kept up to date by the events that change it
// instead of being rescanned every slot. It is derived state — a pure
// function of the contexts' thread, Thread.Halted, availableAt, availCause
// and shadowUntil fields and the clock — in three parts with their own
// lifetimes; the zero value knows nothing and is refilled on first use.
type ctxSummary struct {
	// Membership: changes only when a thread is bound, halts or is
	// restored (invalidateReady).
	membersKnown bool
	bound        uint64 // bit i: context i has a thread
	live         uint64 // bit i: context i has a thread that has not halted

	// Selectability at the current cycle. A write to one context's
	// availability updates its bit in place (availabilityChanged); the
	// clock changes a bit only by crossing validUntil, the nearest future
	// availableAt or shadowUntil of a live context.
	ready      uint64 // bit i: context i can take the slot
	validUntil int64  // ready holds for cycles before this one

	// The idle charge, looked up only when ready is empty (idleCharge):
	// any availability write outdates it, the clock does not.
	idleKnown bool
	wake      int64     // earliest availableAt of a live context (MaxInt64 if none)
	idleCls   SlotClass // that context's wait cause
	idleCtx   int       // and its index (-1 if none)
}

// maxContexts is the largest supported context count: the width of the
// processor's ready mask (the paper evaluates up to eight).
const maxContexts = 64

// hwContext is one hardware context (replicated PC/EPC/register state per
// paper §6; here: a binding slot for a Thread plus availability state).
type hwContext struct {
	idx    int
	thread *Thread

	// availableAt: the context may issue at or after this cycle.
	availableAt int64
	// availCause: what idle slots are charged to while unavailable.
	availCause SlotClass
	// shadowUntil: miss-shadow window; the context's issue slots before
	// this cycle are charged to context-switch overhead (interleaved
	// selective squash).
	shadowUntil int64
	// redirectUntil: fetch redirect after a mispredicted branch; the
	// context cannot issue before this cycle.
	redirectUntil int64
	// replayPC, when >= 0, is the PC of a memory instruction whose miss
	// already flushed this context. If its replay misses again (the line
	// was NAKed or stolen), the context just re-sleeps: the MSHR retries
	// in hardware; the pipeline holds nothing of this context to flush.
	replayPC int
}

func (c *hwContext) runnable() bool {
	return c.thread != nil && !c.thread.Halted
}

// Processor is one multiple-context processor pipeline.
type Processor struct {
	Cfg  Config
	Mem  memsys.System // timing memory system
	FMem *mem.Memory   // functional memory (shared across MP nodes)

	// ID is the processor's index in a multiprocessor (0 on a
	// workstation); it only attributes diagnostics and errors.
	ID int

	ctxs []hwContext
	btb  *BTB

	cycle int64
	rr    int // interleaved round-robin pointer
	cur   int // blocked current context, -1 if none
	// forceNext makes the named context issue first after a blocking
	// I-cache miss resolves: the stalled fetch completes before any other
	// context can conflict-evict the just-filled line.
	forceNext int

	// Processor-wide stall frontiers, each with the context that caused
	// it (for per-thread cycle attribution).
	ifetchUntil int64 // blocking I-cache miss
	ifetchCtx   int
	shadowUntil int64 // blocked-scheme flush / explicit switch cost
	shadowCtx   int
	stallUntil  int64 // single-context structural stall (TLB refill etc.)
	stallCtx    int
	stallCause  SlotClass

	fuFree [isa.NumUnits]int64

	// sel summarizes the contexts for selection (never serialized): every
	// write to a context's availability must be followed by
	// availabilityChanged, every write to its thread or to a bound
	// thread's Halted by invalidateReady.
	sel ctxSummary

	// idealIF records that Mem's instruction fetch is pure (the MP's
	// ideal I-cache), which lets the fast-forward engine skip dependency
	// and functional-unit stall regions on monopolizing schemes. countIF is
	// Mem's memsys.CountedInstFetch view when it has one (the workstation's
	// I-cache): such regions are skippable over it too while the stalled
	// instruction's line is resident, and owe one fetch count per slot.
	idealIF bool
	countIF memsys.CountedInstFetch

	Stats Stats
	// MemWatch, if set, observes every retired word-width memory
	// operation (functional value flow); used by tests to audit
	// synchronization protocols.
	MemWatch func(op isa.Op, addr, value uint32, ctx int, now int64)

	// Observability (metrics.go). obs is nil when disabled, which keeps
	// the hot path to one nil check; nextSample is MaxInt64 whenever
	// sampling is off so Step pays a single always-false compare. The
	// block sits at the end of the struct so the uninstrumented layout —
	// which fields share a cache line on the stepping and fast-forward
	// hot paths — is unchanged from the pre-observability processor.
	obs         *metrics.ProcMetrics
	obsSink     *metrics.Sink // also set alone, by TraceSwitches
	ctxSlots    []int64       // per-context slot-class counters, Contexts × NumSlotClasses
	nextSample  int64
	sampleEvery int64
}

// NewProcessor builds a processor with config cfg over the given timing and
// functional memories.
func NewProcessor(cfg Config, m memsys.System, fm *mem.Memory) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// rr starts at -1 so the first round-robin pick is context 0.
	p := &Processor{Cfg: cfg, Mem: m, FMem: fm, cur: -1, rr: -1, forceNext: -1, nextSample: noSample}
	if f, ok := m.(memsys.IdealInstFetch); ok {
		p.idealIF = f.InstFetchIsIdeal()
	}
	p.countIF, _ = m.(memsys.CountedInstFetch)
	p.ctxs = make([]hwContext, cfg.Contexts)
	for i := range p.ctxs {
		p.ctxs[i] = hwContext{idx: i, replayPC: -1}
	}
	if cfg.BTBEntries > 0 {
		p.btb = NewBTB(cfg.BTBEntries)
	}
	return p, nil
}

// MustNewProcessor is NewProcessor that panics on config errors.
func MustNewProcessor(cfg Config, m memsys.System, fm *mem.Memory) *Processor {
	p, err := NewProcessor(cfg, m, fm)
	if err != nil {
		panic(fmt.Errorf("core: MustNewProcessor(%v, %d contexts): %w", cfg.Scheme, cfg.Contexts, err))
	}
	return p
}

// Now returns the current cycle.
func (p *Processor) Now() int64 { return p.cycle }

// Contexts returns the number of hardware contexts.
func (p *Processor) Contexts() int { return len(p.ctxs) }

// BindThread loads thread th into context idx (nil unbinds). Any pending
// availability state of the context is discarded; an in-flight miss keeps
// filling the cache but no longer blocks the context.
func (p *Processor) BindThread(idx int, th *Thread) {
	c := &p.ctxs[idx]
	c.thread = th
	c.availableAt = p.cycle
	c.shadowUntil = 0
	c.redirectUntil = 0
	c.replayPC = -1
	if p.cur == idx {
		p.cur = -1
	}
	p.invalidateReady()
}

// ThreadAt returns the thread bound to context idx, or nil.
func (p *Processor) ThreadAt(idx int) *Thread { return p.ctxs[idx].thread }

// AllHalted reports whether every bound thread has halted (and at least
// one thread is bound).
func (p *Processor) AllHalted() bool {
	bound, live := p.members()
	return bound != 0 && live == 0
}

// invalidateReady forgets the whole context summary: a thread was bound
// or unbound, a bound thread halted, or the processor was restored.
func (p *Processor) invalidateReady() { p.sel = ctxSummary{} }

// members returns the bound and live context masks, rescanning the
// threads if membership changed since the last call.
func (p *Processor) members() (bound, live uint64) {
	s := &p.sel
	if !s.membersKnown {
		s.bound, s.live, s.membersKnown = 0, 0, true
		for i := range p.ctxs {
			if th := p.ctxs[i].thread; th != nil {
				s.bound |= 1 << uint(i)
				if !th.Halted {
					s.live |= 1 << uint(i)
				}
			}
		}
	}
	return s.bound, s.live
}

// selectableAt reports whether live context c can take the issue slot at
// cycle now, and lowers *until to the cycle at which the clock alone next
// changes that answer. A context is selectable when it is available;
// under the cycle-by-cycle schemes a context inside its miss shadow is
// selectable too (it still takes its slot, charged to switch overhead).
func (p *Processor) selectableAt(c *hwContext, now int64, until *int64) bool {
	if c.availableAt <= now {
		return true
	}
	*until = min(*until, c.availableAt)
	shadowSelects := p.Cfg.Scheme == Interleaved || p.Cfg.Scheme == FineGrained
	if !shadowSelects || c.shadowUntil <= now {
		return false
	}
	*until = min(*until, c.shadowUntil)
	return true
}

// readyAt returns the mask of contexts selectable at cycle now (which
// never runs backwards between invalidations). It is the per-slot
// question, so the usual answer — nothing has happened — is one compare,
// small enough to inline.
func (p *Processor) readyAt(now int64) uint64 {
	if now >= p.sel.validUntil {
		p.rescanReady(now)
	}
	return p.sel.ready
}

// rescanReady recomputes the ready mask and its validity bound from the
// live contexts: the clock has reached the old bound, or the summary was
// forgotten.
func (p *Processor) rescanReady(now int64) {
	s := &p.sel
	_, live := p.members()
	s.ready, s.validUntil = 0, math.MaxInt64
	for m := live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if p.selectableAt(&p.ctxs[i], now, &s.validUntil) {
			s.ready |= 1 << uint(i)
		}
	}
}

// availabilityChanged brings the summary up to date after live context
// c's availableAt, availCause or shadowUntil were rewritten at cycle now:
// its ready bit is recomputed in place, so a miss or a yield costs no
// rescan of the other contexts.
func (p *Processor) availabilityChanged(c *hwContext, now int64) {
	s := &p.sel
	s.idleKnown = false
	if now >= s.validUntil {
		return // already outdated: the next readyAt rescans
	}
	if bit := uint64(1) << uint(c.idx); p.selectableAt(c, now, &s.validUntil) {
		s.ready |= bit
	} else {
		s.ready &^= bit
	}
}

// idleCharge returns what a slot with no selectable context is charged
// to — the wait cause and index of the live context that will wake
// soonest — and that wake cycle (MaxInt64 when nothing ever will). Callers
// have just consulted readyAt.
func (p *Processor) idleCharge() (cls SlotClass, ctx int, wake int64) {
	s := &p.sel
	if !s.idleKnown {
		s.wake, s.idleCls, s.idleCtx, s.idleKnown = math.MaxInt64, SlotIdle, -1, true
		for m := s.live; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if c := &p.ctxs[i]; c.availableAt < s.wake {
				s.wake, s.idleCls, s.idleCtx = c.availableAt, c.availCause, i
			}
		}
	}
	return s.idleCls, s.idleCtx, s.wake
}

func (p *Processor) count(now int64, cls SlotClass, ctx int) {
	p.Stats.Slots[cls]++
	if ctx >= 0 {
		if th := p.ctxs[ctx].thread; th != nil {
			th.Devoted++
		}
	}
	if p.obs != nil {
		p.obsCount(now, cls, ctx)
	}
}

// Run advances the processor n cycles, issuing in place and
// fast-forwarding through stall regions (fastforward.go) unless
// Cfg.NoFastForward forces cycle-by-cycle stepping.
func (p *Processor) Run(n int64) {
	end := p.cycle + n
	for p.cycle < end {
		p.advance(true, end)
	}
}

// skipTo is SkipTo for the single-processor drivers, which learn whether
// the processor is observed only here, and which alone can be handed a
// region whose slots each re-fetch a resident line (fetches, advance's
// fourth result): those fetches are counted here, one per skipped slot.
func (p *Processor) skipTo(target int64, cls SlotClass, ctx int, fetches bool) {
	if p.obs != nil {
		p.obsSkip(target, cls, ctx, fetches)
		return
	}
	if fetches {
		p.countIF.CountInstFetches((target - p.cycle) * max(int64(p.Cfg.IssueWidth), 1))
	}
	p.SkipTo(target, cls, ctx)
}

// RunUntilHalted advances until all bound threads halt, up to limit
// cycles, issuing in place and fast-forwarding through stall regions. It
// returns the cycles executed and whether everything halted. Halt status
// changes only when an instruction executes, and advance returns after
// every cycle it hands to Step and every in-place instruction that halts
// its thread, so checking it per call is equivalent to the per-cycle
// check.
func (p *Processor) RunUntilHalted(limit int64) (int64, bool) {
	start := p.cycle
	end := start + limit
	for p.cycle < end {
		if p.AllHalted() {
			return p.cycle - start, true
		}
		p.advance(true, end)
	}
	return p.cycle - start, p.AllHalted()
}

// Step advances the processor one cycle: one issue slot on the paper's
// processor, IssueWidth slots on the superscalar extension. It reports
// whether any slot retired an instruction.
func (p *Processor) Step() (retired bool) {
	now := p.cycle
	p.cycle++
	p.Stats.Cycles++
	width := p.Cfg.IssueWidth
	if width < 1 {
		width = 1
	}
	for w := 0; w < width; w++ {
		if p.issueSlot(now) {
			retired = true
		}
	}
	if p.cycle >= p.nextSample {
		p.obsSampleTick()
	}
	return retired
}

// issueSlot spends one issue slot at cycle now and reports whether it
// retired an instruction.
func (p *Processor) issueSlot(now int64) bool {
	// Processor-wide stalls take precedence: the blocking I-cache, the
	// blocked scheme's pipeline flush, and single-context structural
	// stalls.
	switch {
	case now < p.ifetchUntil:
		p.count(now, SlotICache, p.ifetchCtx)
		return false
	case now < p.shadowUntil:
		p.count(now, SlotSwitch, p.shadowCtx)
		return false
	case now < p.stallUntil:
		p.count(now, p.stallCause, p.stallCtx)
		return false
	}

	c := p.selectContext(now)
	if c == nil {
		cls, ctx, _ := p.idleCharge()
		p.count(now, cls, ctx)
		return false
	}

	// Interleaved miss shadow: this context's slots between a miss
	// issuing and its detection in WB are squashed work.
	if now < c.shadowUntil {
		p.count(now, SlotSwitch, c.idx)
		return false
	}
	// Fetch redirect after a mispredicted branch.
	if now < c.redirectUntil {
		p.count(now, SlotStallShort, c.idx)
		return false
	}

	th := c.thread
	in := &th.insts[th.PC]

	if p.fetchMisses(c, th, now) {
		return false
	}

	// Scoreboard, then functional-unit conflict.
	if cls, until := p.hazardRegion(th, in, now); until > now {
		p.count(now, cls, c.idx)
		return false
	}

	return p.execute(c, th, in, now)
}

// fetchMisses performs context c's instruction fetch for the slot at cycle
// now. The I-cache is blocking: a miss stalls the whole processor
// regardless of scheme (paper §4.1), takes the slot, and is reported.
func (p *Processor) fetchMisses(c *hwContext, th *Thread, now int64) bool {
	ready, miss := p.Mem.FetchInst(th.pcAddr(th.PC), now)
	if miss {
		p.ifetchUntil = ready
		p.ifetchCtx = c.idx
		p.forceNext = c.idx // the stalled fetch completes first
		p.count(now, SlotICache, c.idx)
	}
	return miss
}

// selectContext picks the issuing context for this cycle from the ready
// mask: the forced context after an I-cache fill, the blocked scheme's
// current context while it stays available, otherwise the next ready
// context after the round-robin pointer.
func (p *Processor) selectContext(now int64) *hwContext {
	ready := p.readyAt(now)
	if p.forceNext >= 0 {
		c := &p.ctxs[p.forceNext]
		p.forceNext = -1
		// Available, not merely inside a miss shadow.
		if c.runnable() && c.availableAt <= now {
			p.rr = c.idx
			return c
		}
	}
	blocked := false
	switch p.Cfg.Scheme {
	case Single:
		if ready&1 != 0 {
			return &p.ctxs[0]
		}
		return nil
	case Blocked, BlockedFast:
		// The current context keeps the pipeline while it stays available.
		if p.cur >= 0 {
			if ready>>uint(p.cur)&1 != 0 {
				return &p.ctxs[p.cur]
			}
			p.cur = -1
		}
		blocked = true
	}
	// Round-robin: the next selectable context after rr. Under the
	// cycle-by-cycle schemes a context inside its miss shadow still takes
	// its slot (charged to switch overhead by the caller).
	i := nextReady(ready, p.rr)
	if i < 0 {
		return nil
	}
	p.rr = i
	if blocked {
		p.cur = i
	}
	return &p.ctxs[i]
}

// nextReady returns the first set bit of ready strictly after position rr,
// wrapping around, or -1 when ready is empty. rr is -1 before the first
// pick.
func nextReady(ready uint64, rr int) int {
	if after := ready &^ (1<<uint(rr+1) - 1); after != 0 {
		return bits.TrailingZeros64(after)
	}
	if ready != 0 {
		return bits.TrailingZeros64(ready)
	}
	return -1
}

// hazardRegion is what keeps fetched instruction in of thread th from
// issuing at cycle now: the class every cycle in [now, until) charges
// while nothing else issues, with until <= now meaning the instruction can
// issue.
//
// First the scoreboard: source and destination (WAW) dependencies. The
// charged class is that of the hazard with the latest writeback, so it can
// change when an earlier hazard clears mid-stall; until is therefore the
// nearest hazard-clear cycle, not the end of the whole stall — callers
// re-evaluate there. Nothing on this thread executes while it is stalled,
// so regReady and regStall are constant over the region and the per-cycle
// answer is provably cls for every cycle in it. Then a conflict on a
// non-pipelined functional unit, which splits into a long-stall and a
// short-stall piece at the LongLatencyThreshold crossing, because the
// stall is charged by its remaining length each cycle.
//
// The operand checks are unrolled and compare against isa.NumRegs (the
// regReady array length) so the bounds checks vanish: this runs once per
// slot that reaches the scoreboard, which makes it one of the hottest
// leaves in the whole simulator.
func (p *Processor) hazardRegion(th *Thread, in *isa.Inst, now int64) (cls SlotClass, until int64) {
	worst := int64(0)
	cls = SlotStallShort
	until = int64(math.MaxInt64)
	active := false
	if r := in.SrcA; r < isa.NumRegs && r != isa.R0 {
		if rdy := th.regReady[r]; rdy > now {
			active = true
			worst = rdy
			cls = th.regStall[r]
			until = rdy
		}
	}
	if r := in.SrcB; r < isa.NumRegs && r != isa.R0 {
		if rdy := th.regReady[r]; rdy > now {
			active = true
			if rdy > worst {
				worst = rdy
				cls = th.regStall[r]
			}
			if rdy < until {
				until = rdy
			}
		}
	}
	// WAW: in-order writeback — a write may issue only if it completes
	// no earlier than the previous write to the same register.
	if d := in.Dst; d < isa.NumRegs && d != isa.R0 {
		if need := th.regReady[d] - int64(in.TM.Latency); need > now {
			active = true
			if th.regReady[d] > worst {
				cls = th.regStall[d]
			}
			if need < until {
				until = need
			}
		}
	}
	if active {
		if in.Region == isa.RegionSync {
			cls = SlotSync
		}
		return cls, until
	}
	if tm := in.TM; tm.Unit != isa.UnitNone && p.fuFree[tm.Unit] > now {
		free := p.fuFree[tm.Unit]
		if in.Region == isa.RegionSync {
			return SlotSync, free
		}
		if b := free - int64(isa.LongLatencyThreshold); now < b {
			return SlotStallLong, b
		}
		return SlotStallShort, free
	}
	return SlotIdle, now
}

// producerClass gives the slot class charged to stalls on the result of an
// instruction that completed normally.
func producerClass(in *isa.Inst) SlotClass {
	if in.Region == isa.RegionSync {
		return SlotSync
	}
	if in.TM.Latency-1 > isa.LongLatencyThreshold {
		return SlotStallLong
	}
	return SlotStallShort
}

// missSlot maps the region of a missing reference to the slot class
// charged while its context waits for the fill.
func missSlot(region isa.Region) SlotClass {
	if region == isa.RegionSync {
		return SlotSync
	}
	return SlotDMem
}

// busySlot charges the issue slot of instruction in, which thread th in
// context c issued at cycle now. Callers charge it after the instruction's
// functional effect and before th.PC moves on: the issue event and the
// retirement hash name th.PC.
func (p *Processor) busySlot(now int64, c *hwContext, th *Thread, in *isa.Inst) {
	c.replayPC = -1
	cls := SlotBusy
	if in.Region == isa.RegionSync {
		cls = SlotSyncBusy
	}
	p.Stats.Slots[cls]++
	th.Devoted++
	th.Retired++
	p.Stats.Retired++
	if th.retire != nil {
		th.foldRetire(in)
	}
	if p.obs != nil {
		p.obsIssue(now, cls, c, th)
	}
}

// execute issues instruction in from context c at cycle now: functional
// semantics plus timing bookkeeping. It reports whether the instruction
// retired (a miss that replays and an explicit yield do not).
func (p *Processor) execute(c *hwContext, th *Thread, in *isa.Inst, now int64) (retired bool) {
	tm := in.TM
	if tm.Unit != isa.UnitNone && tm.Issue > 1 {
		p.fuFree[tm.Unit] = now + int64(tm.Issue)
	}

	switch in.Op {
	case isa.NOP:
		// fallthrough to retire

	case isa.ADD, isa.ADDI, isa.SUB, isa.AND, isa.ANDI, isa.OR, isa.ORI,
		isa.XOR, isa.XORI, isa.SLT, isa.SLTI, isa.SLTU, isa.LUI,
		isa.SLL, isa.SRL, isa.SRA, isa.SLLV, isa.SRLV,
		isa.MUL, isa.DIV, isa.REM, isa.DIVU,
		isa.FCMPLT, isa.FCMPLE, isa.MFC1:
		v := evalInt(in, th)
		th.writeInt(in.Rd, v)
		th.setReady(in.Rd, now+int64(tm.Latency), producerClass(in))

	case isa.FADD, isa.FSUB, isa.FMUL, isa.FNEG, isa.FABS, isa.FCVTIW,
		isa.FDIVS, isa.FDIVD, isa.FSQRT, isa.MTC1:
		v := evalFP(in, th)
		th.writeFP(in.Rd, v)
		th.setReady(in.Rd, now+int64(tm.Latency), producerClass(in))

	case isa.LW, isa.SW, isa.FLD, isa.FSD, isa.TAS:
		return p.executeMem(c, th, in, now) // slot and PC accounted there

	case isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.J, isa.JAL, isa.JR:
		p.busySlot(now, c, th, in)
		p.executeBranch(c, th, in, now) // moves the PC
		return true

	case isa.SWITCH:
		// Explicit switch (blocked scheme, Table 4: cost 3). The switch
		// decision is made at decode, so the flush is short.
		p.Stats.ExplicitSwitches++
		th.PC++
		c.availableAt = now + int64(in.Imm)
		c.availCause = yieldCause(in.Region)
		p.availabilityChanged(c, now)
		p.shadowUntil = now + int64(p.Cfg.ExplicitSwitchCost)
		p.shadowCtx = c.idx
		p.cur = -1
		if p.obsSink != nil {
			p.obsCtxSwitch(now, c.idx, c.availCause, c.availableAt)
		}
		p.count(now, SlotSwitch, c.idx)
		return false

	case isa.BACKOFF:
		// Interleaved backoff (Table 4: cost 1 — this slot).
		p.Stats.Backoffs++
		th.PC++
		c.availableAt = now + int64(in.Imm)
		c.availCause = yieldCause(in.Region)
		p.availabilityChanged(c, now)
		if p.obsSink != nil {
			p.obsCtxSwitch(now, c.idx, c.availCause, c.availableAt)
		}
		p.count(now, SlotSwitch, c.idx)
		return false

	case isa.TRAP:
		// Software exception (§6): save the resume PC in this context's
		// EPC and redirect to the handler, paying the pipeline refill
		// like an unpredicted control transfer.
		th.TrapCode = in.Imm
		if th.TrapHandler < 0 {
			th.Halted = true
			th.HaltedAt = now
			p.invalidateReady()
			p.busySlot(now, c, th, in)
			if p.cur == c.idx {
				p.cur = -1
			}
			return true
		}
		p.busySlot(now, c, th, in)
		th.EPC = th.PC + 1
		th.PC = th.TrapHandler
		c.redirectUntil = now + 1 + int64(p.Cfg.MispredictPenalty)
		return true

	case isa.ERET:
		p.busySlot(now, c, th, in)
		th.PC = th.EPC
		c.redirectUntil = now + 1 + int64(p.Cfg.MispredictPenalty)
		return true

	case isa.HALT:
		th.Halted = true
		th.HaltedAt = now
		p.invalidateReady()
		p.busySlot(now, c, th, in)
		if p.cur == c.idx {
			p.cur = -1
		}
		return true

	default:
		panic(guard.NewSimError("core.execute", fmt.Errorf("unimplemented op %v", in.Op)).
			At(now).On(p.ID, c.idx, th.PC))
	}

	p.busySlot(now, c, th, in)
	th.PC++

	// Fine-grained pipelines hold one instruction per context: the next
	// issue waits a full pipeline depth.
	if p.Cfg.Scheme == FineGrained {
		if c.availableAt < now+int64(p.Cfg.PipelineDepth) {
			c.availableAt = now + int64(p.Cfg.PipelineDepth)
			c.availCause = SlotStallShort
			p.availabilityChanged(c, now)
		}
	}
	return true
}

// yieldCause is what to charge idle time caused by an explicit
// switch/backoff: sync code yields charge to synchronization, compute
// yields (after divides) to long instruction stall.
func yieldCause(r isa.Region) SlotClass {
	if r == isa.RegionSync {
		return SlotSync
	}
	return SlotStallLong
}

// executeMem handles loads, stores and atomics, with all scheme-specific
// bookkeeping and slot accounting. It reports whether the instruction
// retired: a hit, any fine-grained reference and a single-context access
// executing under its miss do; every other miss replays.
func (p *Processor) executeMem(c *hwContext, th *Thread, in *isa.Inst, now int64) (retired bool) {
	addr := uint32(int64(th.readInt(in.Rs)) + int64(in.Imm))

	// The fine-grained scheme has no data cache: every reference is a
	// fixed-latency memory access with zero switch cost (§2.1).
	if p.Cfg.Scheme == FineGrained {
		p.memFunctional(th, in, addr, c.idx, now)
		fill := now + int64(p.Cfg.FineGrainedMemLatency)
		if d := in.Dst; d != isa.NoReg {
			th.setReady(d, fill, missSlot(in.Region))
		}
		c.availableAt = fill
		c.availCause = missSlot(in.Region)
		p.availabilityChanged(c, now)
		p.busySlot(now, c, th, in)
		th.PC++
		return true
	}

	res := p.Mem.AccessData(addr, in.IsStore(), th.pcAddr(th.PC), now)
	if res.Hit {
		p.memFunctional(th, in, addr, c.idx, now)
		if d := in.Dst; d != isa.NoReg {
			th.setReady(d, res.ReadyAt, producerClass(in))
		}
		p.busySlot(now, c, th, in)
		th.PC++
		return true
	}

	// Miss. The faulting instruction is not executed: the context's PC
	// stays here and the access replays when the line (or TLB entry)
	// arrives, which also gives the replayed load post-coherence data on
	// a multiprocessor.
	cause := missSlot(in.Region)

	// A TLB miss is a software refill: the handler runs on the processor
	// itself, so no scheme can overlap it — the pipe blocks until the
	// entry is installed, then the access replays.
	if res.Class == memsys.TLBMiss {
		p.stallUntil = res.FillAt
		p.stallCause = cause
		p.stallCtx = c.idx
		p.count(now, cause, c.idx)
		return false
	}

	// A replayed access that misses again (NAKed at the directory or the
	// line was stolen): the context was never restarted, so there is
	// nothing to flush — it re-sleeps at the cost of this slot only.
	if c.replayPC == th.PC && p.Cfg.Scheme != Single {
		c.availableAt = max(res.FillAt, now+1)
		c.availCause = cause
		p.availabilityChanged(c, now)
		p.count(now, cause, c.idx)
		return false
	}
	c.replayPC = th.PC

	switch p.Cfg.Scheme {
	case Single:
		if res.Class == memsys.MSHRFull {
			// Structural: the access itself could not start. Stall the
			// pipe and replay.
			p.stallUntil = res.FillAt
			p.stallCause = cause
			p.stallCtx = c.idx
			p.count(now, cause, c.idx)
			return false
		}
		// Lockup-free: execute under the miss; consumers wait for the
		// fill through the scoreboard.
		p.memFunctional(th, in, addr, c.idx, now)
		if d := in.Dst; d != isa.NoReg {
			th.setReady(d, res.FillAt, cause)
		}
		p.busySlot(now, c, th, in)
		th.PC++
		return true

	case Blocked, BlockedFast:
		// Flush the pipeline: the miss is detected in WB, so the whole
		// window from the faulting issue to detection is lost (7 slots),
		// or a single slot for the replicated-pipeline variant.
		p.Stats.MissSwitches++
		depth := int64(p.Cfg.PipelineDepth)
		if p.Cfg.Scheme == BlockedFast {
			depth = 1
		}
		if p.Cfg.BlockedFlushCost > 0 {
			depth = int64(p.Cfg.BlockedFlushCost)
		}
		p.shadowUntil = now + depth
		p.shadowCtx = c.idx
		c.availableAt = max(res.FillAt, now+depth)
		c.availCause = cause
		p.availabilityChanged(c, now)
		p.cur = -1
		if p.obsSink != nil {
			p.obsCtxSwitch(now, c.idx, cause, c.availableAt)
		}
		p.count(now, SlotSwitch, c.idx)
		return false

	case Interleaved:
		// Selective squash: only this context's slots inside the
		// detection window are lost; other contexts keep issuing.
		p.Stats.MissSwitches++
		depth := int64(p.Cfg.PipelineDepth)
		c.shadowUntil = now + depth
		c.availableAt = max(res.FillAt, now+depth)
		c.availCause = cause
		p.availabilityChanged(c, now)
		if p.obsSink != nil {
			p.obsCtxSwitch(now, c.idx, cause, c.availableAt)
		}
		p.count(now, SlotSwitch, c.idx)
		return false
	}
	panic(guard.NewSimError("core.executeMem", fmt.Errorf("unreachable miss scheme %v", p.Cfg.Scheme)).
		At(now).On(p.ID, c.idx, th.PC).WithAddr(addr))
}

// memFunctional applies the functional semantics of a memory instruction
// to the effective address executeMem computed, and shows a word-width
// access to MemWatch.
func (p *Processor) memFunctional(th *Thread, in *isa.Inst, addr uint32, ctx int, now int64) {
	v := memOp(th, in, addr, p.FMem)
	if p.MemWatch != nil && in.Op != isa.FLD && in.Op != isa.FSD {
		p.MemWatch(in.Op, addr, v, ctx, now)
	}
}

// memOp applies memory instruction in of thread th to fm at effective
// address addr. It returns the word a LW or TAS read or a SW wrote.
func memOp(th *Thread, in *isa.Inst, addr uint32, fm *mem.Memory) (v uint32) {
	switch in.Op {
	case isa.LW:
		v = fm.LoadW(addr)
		th.writeInt(in.Rd, v)
	case isa.SW:
		v = th.readInt(in.Rt)
		fm.StoreW(addr, v)
	case isa.FLD:
		th.Regs[in.Rd] = fm.LoadD(addr)
	case isa.FSD:
		fm.StoreD(addr, th.Regs[in.Rt])
	case isa.TAS:
		v = fm.TestAndSet(addr)
		th.writeInt(in.Rd, v)
	}
	return v
}

// executeBranch resolves a control transfer, consults the BTB, and charges
// the fetch redirect on a misprediction.
func (p *Processor) executeBranch(c *hwContext, th *Thread, in *isa.Inst, now int64) {
	p.Stats.Branches++
	next, taken := branchNext(in, th)
	if in.Op == isa.JAL {
		th.setReady(in.Rd, now+1, SlotStallShort)
	}

	pcAddr := th.pcAddr(th.PC)
	predicted := th.PC + 1 // fall-through on BTB miss
	btbHit := false
	if p.btb != nil {
		if t, hit := p.btb.Lookup(pcAddr); hit {
			predicted = int(t)
			btbHit = true
		}
	}
	if predicted != next {
		p.Stats.Mispredicts++
		penalty := int64(p.Cfg.MispredictPenalty)
		if (in.Op == isa.J || in.Op == isa.JAL) && !btbHit {
			// Unconditional direct jumps resolve at decode: one bubble.
			penalty = 1
		}
		c.redirectUntil = now + 1 + penalty
	}
	if p.btb != nil {
		p.btb.Record(pcAddr, taken || in.Op == isa.J || in.Op == isa.JAL || in.Op == isa.JR, int32(next))
	}
	th.PC = next
}

// branchNext resolves control transfer in of thread th: the index of the
// next instruction and whether a conditional branch was taken (jumps
// always are). JAL writes its link register.
func branchNext(in *isa.Inst, th *Thread) (next int, taken bool) {
	taken = true
	next = int(in.Target)
	switch in.Op {
	case isa.BEQ:
		taken = th.readInt(in.Rs) == th.readInt(in.Rt)
	case isa.BNE:
		taken = th.readInt(in.Rs) != th.readInt(in.Rt)
	case isa.BLEZ:
		taken = int32(th.readInt(in.Rs)) <= 0
	case isa.BGTZ:
		taken = int32(th.readInt(in.Rs)) > 0
	case isa.J:
	case isa.JAL:
		th.writeInt(in.Rd, uint32(th.PC+1))
	case isa.JR:
		next = int(th.readInt(in.Rs))
	}
	if !taken {
		next = th.PC + 1
	}
	return next, taken
}

// Exec executes the thread's next instruction against functional memory
// fm with the pipeline's semantics and no timing model: it moves no
// scoreboard, clock, Retired or HaltedAt, so the caller alone decides
// when each thread runs. yield reports an explicit BACKOFF or SWITCH, the
// program's declared switch point. TRAP and ERET are errors: no program
// the functional machine runs uses them, and the reference interpreter
// does not model them.
func (t *Thread) Exec(fm *mem.Memory) (yield bool, err error) {
	if t.PC < 0 || t.PC >= len(t.insts) {
		return false, fmt.Errorf("pc %d out of range", t.PC)
	}
	in := &t.insts[t.PC]
	next := t.PC + 1
	switch in.Op {
	case isa.NOP:
	case isa.BACKOFF, isa.SWITCH:
		yield = true
	case isa.LW, isa.SW, isa.FLD, isa.FSD, isa.TAS:
		memOp(t, in, uint32(int64(t.readInt(in.Rs))+int64(in.Imm)), fm)
	case isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.J, isa.JAL, isa.JR:
		next, _ = branchNext(in, t)
	case isa.HALT:
		t.Halted = true
		return false, nil
	case isa.TRAP, isa.ERET:
		return false, fmt.Errorf("unhandled op %v at pc %d", in.Op, t.PC)
	default:
		// Register to register: the destination's class picks the
		// evaluator (FCMPLT and MFC1 write an integer, MTC1 an FP value).
		if in.Rd.IsFP() {
			t.writeFP(in.Rd, evalFP(in, t))
		} else {
			t.writeInt(in.Rd, evalInt(in, t))
		}
	}
	t.PC = next
	return yield, nil
}

func evalInt(in *isa.Inst, th *Thread) uint32 {
	s := th.readInt(in.Rs)
	t := th.readInt(in.Rt)
	imm := uint32(in.Imm)
	switch in.Op {
	case isa.ADD:
		return s + t
	case isa.ADDI:
		return s + imm // imm sign-extended via int32 conversion on build
	case isa.SUB:
		return s - t
	case isa.AND:
		return s & t
	case isa.ANDI:
		return s & (imm & 0xFFFF)
	case isa.OR:
		return s | t
	case isa.ORI:
		return s | (imm & 0xFFFF)
	case isa.XOR:
		return s ^ t
	case isa.XORI:
		return s ^ (imm & 0xFFFF)
	case isa.SLT:
		if int32(s) < int32(t) {
			return 1
		}
		return 0
	case isa.SLTI:
		if int32(s) < in.Imm {
			return 1
		}
		return 0
	case isa.SLTU:
		if s < t {
			return 1
		}
		return 0
	case isa.LUI:
		return imm << 16
	case isa.SLL:
		return s << (imm & 31)
	case isa.SRL:
		return s >> (imm & 31)
	case isa.SRA:
		return uint32(int32(s) >> (imm & 31))
	case isa.SLLV:
		return s << (t & 31)
	case isa.SRLV:
		return s >> (t & 31)
	case isa.MUL:
		return s * t
	case isa.DIV:
		if t == 0 {
			return 0
		}
		return uint32(int32(s) / int32(t))
	case isa.REM:
		if t == 0 {
			return 0
		}
		return uint32(int32(s) % int32(t))
	case isa.DIVU:
		if t == 0 {
			return 0
		}
		return s / t
	case isa.FCMPLT:
		if th.readFP(in.Rs) < th.readFP(in.Rt) {
			return 1
		}
		return 0
	case isa.FCMPLE:
		if th.readFP(in.Rs) <= th.readFP(in.Rt) {
			return 1
		}
		return 0
	case isa.MFC1:
		return uint32(int32(th.readFP(in.Rs)))
	}
	panic("core: evalInt on non-integer op")
}

func evalFP(in *isa.Inst, th *Thread) float64 {
	s := th.readFP(in.Rs)
	t := th.readFP(in.Rt)
	switch in.Op {
	case isa.FADD:
		return s + t
	case isa.FSUB:
		return s - t
	case isa.FMUL:
		return s * t
	case isa.FNEG:
		return -s
	case isa.FABS:
		return math.Abs(s)
	case isa.FCVTIW:
		return math.Trunc(s)
	case isa.FDIVS, isa.FDIVD:
		return s / t
	case isa.FSQRT:
		return math.Sqrt(s)
	case isa.MTC1:
		return float64(int32(th.readInt(in.Rs)))
	}
	panic("core: evalFP on non-FP op")
}

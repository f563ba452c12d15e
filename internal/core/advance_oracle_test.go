package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// Advance (fastforward.go) is "NextEvent, and if the cycle is not boring,
// Step" computed in one pass. This file holds it to that sentence: two
// machines are fed the same program, one driven by Advance and one by
// NextEvent followed by Step, and after every call the two must have
// returned the same thing and serialize to the same bytes. The reference
// side's state before each call also says which way through Advance the
// call goes (advancePath), and the test fails if any of those ways was
// never gone.

// advanceProg reaches every stall the post-selection cascade tells apart:
// a missing load and its consumer, three divides in a row on the one
// divider (a long stall that becomes a short one, the third charged to
// synchronization), a branch the BTB gets wrong every time with the last
// divide's consumer behind it, a yield, and staggered ends through HALT
// and an unhandled TRAP. The stride crosses a
// page every iteration, so the workstation hierarchy adds TLB refills. R4
// carries the thread id.
func advanceProg(mode prog.YieldMode) func(testing.TB) *prog.Program {
	return func(t testing.TB) *prog.Program {
		t.Helper()
		b := prog.NewBuilder("advance-oracle", 0x1000, 0x10_0000, 1<<22)
		b.SetYield(mode)
		arr := b.Alloc(9*64<<10, 64)
		b.La(isa.R1, arr)
		b.Sll(isa.R11, isa.R4, 16) // tid * 64 KiB
		b.Add(isa.R1, isa.R1, isa.R11)
		b.Sll(isa.R11, isa.R4, 7) // and a cache set of its own
		b.Add(isa.R1, isa.R1, isa.R11)
		b.Addi(isa.R5, isa.R4, 4) // 4 + tid iterations
		b.Li(isa.R9, 3)
		b.Label("loop")
		b.Lw(isa.R6, isa.R1, 0)
		b.Add(isa.R7, isa.R7, isa.R6)
		b.Div(isa.R8, isa.R5, isa.R9)
		b.Div(isa.R10, isa.R5, isa.R9)
		b.SetRegion(isa.RegionSync)
		b.Div(isa.R12, isa.R5, isa.R9)
		b.SetRegion(isa.RegionNormal)
		b.Xori(isa.R13, isa.R13, 1)
		b.Bgtz(isa.R13, "odd")
		b.Add(isa.R14, isa.R14, isa.R12) // either way the redirect ends on an interlock
		b.Label("odd")
		b.Add(isa.R16, isa.R16, isa.R12)
		b.Yield(9)
		b.Addi(isa.R1, isa.R1, 4160)
		b.Addi(isa.R5, isa.R5, -1)
		b.Bgtz(isa.R5, "loop")
		b.Andi(isa.R15, isa.R4, 1)
		b.Bgtz(isa.R15, "trap")
		b.Halt()
		b.Label("trap")
		b.Trap(3)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// oracleScenario is one machine configuration of the grid.
type oracleScenario struct {
	name   string
	prog   func(testing.TB) *prog.Program
	scheme Scheme
	nctx   int
	width  int    // IssueWidth, 0 for the paper's single issue
	noFF   bool   // Cfg.NoFastForward
	btb    int    // BTBEntries, 0 for the default
	mem    string // which memory system: one of oracleMems
	sample int64  // metrics SampleEvery, 0 for an unobserved machine
	trace  bool   // install a Trace hook on every machine
}

// oracleMems are the three things an instruction fetch can be to the
// engine: ideal (node 0 of a two-node coherence fabric), counted (the
// workstation cache hierarchy) and opaque (fakeMem, which says nothing
// about its fetch — and keeps its fills in a map no checkpoint holds).
var oracleMems = []string{"fabric", "hierarchy", "opaque"}

type oracleMachine struct {
	proc    *Processor
	fm      *mem.Memory
	h       *cache.Hierarchy
	fab     *coherence.Fabric
	threads []*Thread
	col     *metrics.Collector
	events  []TraceEvent
}

func (sc *oracleScenario) build(t *testing.T) *oracleMachine {
	t.Helper()
	m := &oracleMachine{fm: mem.New()}
	var sys memsys.System
	switch sc.mem {
	case "fabric":
		m.fab = coherence.MustNewFabric(coherence.DefaultParams(), 2)
		sys = m.fab.Node(0)
	case "hierarchy":
		m.h = cache.MustNewHierarchy(cache.DefaultParams())
		sys = m.h
	default:
		sys = newFakeMem(40)
	}
	pr := sc.prog(t)
	pr.LoadInit(m.fm)
	cfg := DefaultConfig(sc.scheme, sc.nctx)
	cfg.IssueWidth = sc.width
	cfg.NoFastForward = sc.noFF
	if sc.btb > 0 {
		cfg.BTBEntries = sc.btb
	}
	m.proc = MustNewProcessor(cfg, sys, m.fm)
	if sc.sample > 0 {
		m.col = metrics.NewCollector(metrics.Options{SampleEvery: sc.sample, Events: true}, 1)
		m.proc.AttachMetrics(m.col.Proc(0))
		if m.h != nil {
			m.h.AttachMetrics(m.col.Proc(0))
		}
		if m.fab != nil {
			m.fab.Node(0).AttachMetrics(m.col.Proc(0))
		}
	}
	if sc.trace {
		m.proc.Trace = func(ev TraceEvent) { m.events = append(m.events, ev) }
	}
	for i := 0; i < sc.nctx; i++ {
		th := NewThread(fmt.Sprintf("t%d", i), pr)
		th.SetIntReg(isa.R4, uint32(i))
		m.proc.BindThread(i, th)
		m.threads = append(m.threads, th)
	}
	return m
}

// state is everything the machine would checkpoint, plus the trace so
// far. An observed processor does not checkpoint: its clock and accounting
// stand in, and at the end (final) everything its observers recorded.
func (m *oracleMachine) state(t *testing.T, final bool) []byte {
	t.Helper()
	if !m.proc.Observed() {
		return append(m.checkpoint(), fmt.Sprintf("%v", m.events)...)
	}
	w := snapshot.NewWriter()
	for _, th := range m.threads {
		th.SaveState(w)
	}
	var blob []byte
	if final {
		var err error
		if blob, err = json.Marshal(m.col.Result()); err != nil {
			t.Fatal(err)
		}
	}
	return append(w.Bytes(), fmt.Sprintf("@%d %+v %s", m.proc.Now(), m.proc.Stats, blob)...)
}

// checkpoint is the unobserved machine as a driver would save it: threads,
// processor, memory system, functional memory.
func (m *oracleMachine) checkpoint() []byte {
	w := snapshot.NewWriter()
	for _, th := range m.threads {
		th.SaveState(w)
	}
	m.proc.SaveState(w)
	if m.h != nil {
		m.h.SaveState(w)
	}
	if m.fab != nil {
		m.fab.SaveState(w)
	}
	m.fm.SaveState(w)
	return w.Bytes()
}

// advancePath names the way the next Advance call goes through the
// function, from the state it will read. It is a second reading of the
// cascade on purpose, used only to count coverage and to predict whether
// the call may move the clock; what the call must do is decided by
// NextEvent and Step on the reference machine.
func advancePath(p *Processor) string {
	now := p.cycle
	switch {
	case p.Cfg.NoFastForward:
		return "fallback/no-fast-forward"
	case p.Trace != nil:
		return "fallback/trace"
	case now < p.ifetchUntil:
		return "frontier/ifetch"
	case now < p.shadowUntil:
		return "frontier/shadow"
	case now < p.stallUntil:
		return "frontier/stall"
	case p.forceNext >= 0:
		return "fallback/forced-fetch"
	}
	ready := p.readyAt(now)
	scheme := p.Cfg.Scheme
	blocked := scheme == Blocked || scheme == BlockedFast
	kind := "mono"
	var c *hwContext
	switch {
	case scheme == Single:
		if ready&1 == 0 {
			return "idle"
		}
		c = &p.ctxs[0]
	case blocked && p.cur >= 0:
		if ready>>uint(p.cur)&1 == 0 {
			return "fallback/broken-monopoly"
		}
		c = &p.ctxs[p.cur]
	case ready == 0:
		return "idle"
	case scheme == Interleaved:
		kind = "interleaved"
		c = &p.ctxs[nextReady(ready, p.rr)]
	case blocked:
		return "fallback/blocked-pick"
	default:
		return "fallback/fine-grained"
	}
	what := "issue"
	th := c.thread
	in := &th.insts[th.PC]
	free := p.fuFree[in.TM.Unit]
	idle := *p
	idle.fuFree = [isa.NumUnits]int64{}
	_, dep := idle.hazardRegion(th, in, now) // the scoreboard's share of it
	switch {
	case now < c.shadowUntil:
		what = "shadow"
	case now < c.redirectUntil:
		what = "redirect"
	case dep > now:
		what = "dependency"
	case in.TM.Unit == isa.UnitNone || free <= now:
	case in.Region == isa.RegionSync:
		what = "fu-sync"
	case free-now > isa.LongLatencyThreshold:
		what = "fu-long"
	default:
		what = "fu-short"
	}
	// A fetch the memory notices comes after the shadow and the redirect,
	// which never fetch. A monopolist's stall behind a line the memory says
	// is resident is a region that counts its fetches; any other slot is
	// fetched for real in the pass that classified it, and then issues or
	// stalls — or, where the memory said the line is not resident, misses.
	// An opaque memory says nothing, so it has no such regions (and
	// fakeMem's fetch never misses).
	fetched := !p.idealIF && what != "shadow" && what != "redirect"
	resident := fetched && p.countIF != nil && p.countIF.InstFetchHits(th.pcAddr(th.PC))
	if kind == "mono" && what != "issue" && resident {
		return "counted/region"
	}
	if p.Cfg.IssueWidth > 1 && (what == "issue" || kind == "interleaved" || fetched) {
		return "fallback/superscalar"
	}
	if !fetched {
		return kind + "/" + what
	}
	if what != "issue" {
		what = "stall-slot"
	}
	switch {
	case p.countIF == nil:
		return "opaque/" + what
	case !resident:
		return "fetched/miss"
	default:
		return "fetched/" + what
	}
}

// advancePaths is every way through Advance; each must be gone at least
// once over the whole grid. A monopolist has no context miss shadow (only
// the interleaved scheme sets one), so there is no "mono/shadow".
var advancePaths = []string{
	"frontier/ifetch", "frontier/shadow", "frontier/stall", "idle",
	"mono/redirect", "mono/dependency", "mono/fu-sync", "mono/fu-long", "mono/fu-short", "mono/issue",
	"interleaved/shadow", "interleaved/redirect", "interleaved/dependency",
	"interleaved/fu-sync", "interleaved/fu-long", "interleaved/fu-short", "interleaved/issue",
	"counted/region", "fetched/issue", "fetched/stall-slot", "fetched/miss", "opaque/issue", "opaque/stall-slot",
	"fallback/no-fast-forward", "fallback/trace", "fallback/forced-fetch",
	"fallback/broken-monopoly", "fallback/blocked-pick", "fallback/fine-grained", "fallback/superscalar",
}

// boringPath reports whether a call on that path must return a region and
// leave the clock alone.
func boringPath(path string) bool {
	return path == "idle" || path == "counted/region" || strings.HasPrefix(path, "frontier/") ||
		(strings.HasPrefix(path, "mono/") && path != "mono/issue")
}

// sameAfterCall compares what one call can change short of the memory
// system's insides (the whole-machine comparison at every restore and at
// the end covers those) — but with the hierarchy's counters, which a
// counted fetch moves from outside it: the processor's serialized state —
// an observed one does not checkpoint; its clock and accounting stand in —
// and every thread, field by field, because serializing eight register
// files twice a call is most of a minute over the grid.
func sameAfterCall(a, b *oracleMachine) bool {
	for i, x := range a.threads {
		y := b.threads[i]
		if x.PC != y.PC || x.Regs != y.Regs || x.Halted != y.Halted || x.HaltedAt != y.HaltedAt ||
			x.EPC != y.EPC || x.TrapHandler != y.TrapHandler || x.TrapCode != y.TrapCode ||
			x.Retired != y.Retired || x.Devoted != y.Devoted ||
			x.regReady != y.regReady || x.regStall != y.regStall {
			return false
		}
	}
	if a.h != nil && a.h.Stats != b.h.Stats {
		return false
	}
	if a.proc.Observed() {
		return a.proc.Now() == b.proc.Now() && a.proc.Stats == b.proc.Stats
	}
	wa, wb := snapshot.NewWriter(), snapshot.NewWriter()
	a.proc.SaveState(wa)
	b.proc.SaveState(wb)
	return bytes.Equal(wa.Bytes(), wb.Bytes())
}

// reincarnate checkpoints the machine and returns a fresh one restored
// from the bytes.
func (sc *oracleScenario) reincarnate(t *testing.T, m *oracleMachine) *oracleMachine {
	t.Helper()
	fresh := sc.build(t)
	fresh.proc.AllHalted() // a summary for the restore to outdate
	r := snapshot.NewReader(m.checkpoint())
	for _, th := range fresh.threads {
		th.RestoreState(r)
	}
	fresh.proc.RestoreState(r)
	if fresh.h != nil {
		fresh.h.RestoreState(r)
	}
	if fresh.fab != nil {
		fresh.fab.RestoreState(r)
	}
	fresh.fm.RestoreState(r)
	if err := snapshot.Finish(r); err != nil {
		t.Fatalf("%s: restore: %v", sc.name, err)
	}
	fresh.events = m.events
	return fresh
}

// advanceOracle drives the scenario's two machines call by call. Along the
// way a context is unbound and bound again, a forced fetch is left pending
// (the blocking I-cache leaves its own on the hierarchy; an ideal fetch
// never does), and both machines are checkpointed and restored into fresh
// ones at a 64-cycle boundary.
func (sc *oracleScenario) advanceOracle(t *testing.T, rng *rand.Rand, tally map[string]int) {
	t.Helper()
	adv, ref := sc.build(t), sc.build(t)
	const block = 64
	unbindAt := block * (1 + rng.Int63n(3))
	rebindAt := unbindAt + block*(1+rng.Int63n(3))
	forceAt := rebindAt + 1 + rng.Int63n(2*block)
	restoreAt := block * (6 + rng.Int63n(8))
	limit := int64(40_000)
	if sc.noFF || sc.trace {
		limit = 1000 // every cycle is a stepped fallback: the first thousand say it all
	}
	victim := rng.Intn(sc.nctx)
	marks := []int64{unbindAt, rebindAt, forceAt, restoreAt}
	sort.Slice(marks, func(i, j int) bool { return marks[i] < marks[j] })
	tail := int64(-1)

	compare := func(when string, deep bool) {
		t.Helper()
		same := sameAfterCall(adv, ref)
		if deep {
			same = bytes.Equal(adv.state(t, true), ref.state(t, true))
		}
		if !same {
			t.Fatalf("%s @%d: %s the machines differ\n Advance:        %+v\n NextEvent+Step: %+v",
				sc.name, ref.proc.Now(), when, adv.proc.Stats, ref.proc.Stats)
		}
	}
	for ref.proc.Now() < limit {
		now := ref.proc.Now()
		if tail < 0 && ref.proc.AllHalted() {
			tail, limit = now, min(limit, now+3*block) // and a stretch of the final idle region
		}
		for len(marks) > 0 && marks[0] <= now {
			marks = marks[1:]
		}
		// A skip stops at the next mark, so each is visited exactly once.
		if now == unbindAt {
			adv.proc.BindThread(victim, nil)
			ref.proc.BindThread(victim, nil)
		}
		if now == rebindAt {
			adv.proc.BindThread(victim, adv.threads[victim])
			ref.proc.BindThread(victim, ref.threads[victim])
		}
		if now == forceAt && ref.proc.forceNext < 0 {
			adv.proc.forceNext, ref.proc.forceNext = victim, victim
		}
		if now == restoreAt && !ref.proc.Observed() && sc.mem != "opaque" {
			compare("before the restore", true)
			adv, ref = sc.reincarnate(t, adv), sc.reincarnate(t, ref)
		}

		path := advancePath(ref.proc)
		tally[path]++
		// advance itself, for its fourth result: Advance and NextEvent are it
		// with issue true and false.
		cls, ctx, until, fetches := adv.proc.advance(true)
		wcls, wctx, wuntil, wfetches := ref.proc.advance(false)
		if wuntil <= now {
			ref.proc.Step()
			wcls, wctx, wuntil = SlotIdle, -1, now
		}
		if cls != wcls || ctx != wctx || until != wuntil || fetches != wfetches {
			t.Fatalf("%s @%d (%s): Advance = (%v, %d, %d, %v), NextEvent+Step (%v, %d, %d, %v)",
				sc.name, now, path, cls, ctx, until, fetches, wcls, wctx, wuntil, wfetches)
		}
		if boring := until > now; boring != boringPath(path) {
			t.Fatalf("%s @%d: path %s but Advance returned until %d", sc.name, now, path, until)
		}
		if fetches != (path == "counted/region") {
			t.Fatalf("%s @%d: path %s but Advance returned fetches %v", sc.name, now, path, fetches)
		}
		compare("after a call on path "+path, false)
		if until > now {
			target := min(until, limit)
			if len(marks) > 0 {
				target = min(target, marks[0])
			}
			adv.proc.skipTo(target, cls, ctx, fetches)
			if fetches {
				// What a counted region owes is what stepping it fetches.
				for ref.proc.Now() < target {
					ref.proc.Step()
				}
			} else {
				ref.proc.skipTo(target, cls, ctx, false)
			}
		}
	}
	if tail < 0 && !sc.noFF && !sc.trace {
		t.Fatalf("%s: not halted after %d cycles", sc.name, limit)
	}
	compare("at the end", true)
	if err := adv.proc.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
}

// TestAdvanceMatchesNextEventThenStep is the grid: every scheme × 1/2/4/8
// contexts × ideal fetch (a coherence node), counting fetch (the
// workstation hierarchy) and opaque fetch (fakeMem) × fast-forward on/off ×
// issue width 1/2 × Trace set or not × sampled every 32 cycles or
// unobserved.
func TestAdvanceMatchesNextEventThenStep(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	tally := map[string]int{}
	scenarios := 0
	for _, scheme := range []Scheme{Single, Blocked, BlockedFast, Interleaved, FineGrained} {
		counts := []int{1, 2, 4, 8}
		if scheme == Single {
			counts = []int{1}
		}
		// A context that backs off under a blocked scheme goes to sleep
		// without giving up the pipeline — the one way this kernel breaks a
		// monopoly (a replayed access missing again is the other).
		yield := scheme.YieldMode()
		if scheme == BlockedFast {
			yield = prog.YieldBackoff
		}
		for _, nctx := range counts {
			for opt := 0; opt < 16*len(oracleMems); opt++ {
				sc := oracleScenario{
					prog: advanceProg(yield), scheme: scheme, nctx: nctx, btb: 32, mem: oracleMems[opt>>4],
					noFF: opt&1 != 0, width: 1 + opt>>1&1, trace: opt&4 != 0, sample: 32 * int64(opt>>3&1),
				}
				sc.name = fmt.Sprintf("%v/%dctx/%s/noFF=%v/width=%d/trace=%v/sample=%d",
					scheme, nctx, sc.mem, sc.noFF, sc.width, sc.trace, sc.sample)
				sc.advanceOracle(t, rng, tally)
				scenarios++
			}
		}
	}
	listed := map[string]bool{}
	for _, path := range advancePaths {
		listed[path] = true
		if tally[path] == 0 {
			t.Errorf("coverage hole: no Advance call went %s", path)
		}
	}
	for path := range tally {
		if !listed[path] {
			t.Errorf("advancePath named %q, which advancePaths does not list", path)
		}
	}
	t.Logf("%d scenarios: %v", scenarios, tally)
}

// TestStepReportsRetirement: Step's result must say exactly whether the
// cycle moved Stats.Retired — on hits, misses that replay, misses executed
// under (single context), fine-grained references, yields, traps and halts.
func TestStepReportsRetirement(t *testing.T) {
	for _, sc := range []oracleScenario{
		{name: "stall/single", prog: stallProg, scheme: Single, nctx: 1},
		{name: "stall/blocked", prog: stallProg, scheme: Blocked, nctx: 2},
		{name: "stall/interleaved", prog: stallProg, scheme: Interleaved, nctx: 4},
		{name: "stall/fine-grained", prog: stallProg, scheme: FineGrained, nctx: 4},
		{name: "stall/width2", prog: stallProg, scheme: Interleaved, nctx: 2, width: 2},
		{name: "yield/interleaved", prog: yieldProg, scheme: Interleaved, nctx: 4},
		{name: "yield/blocked-fast", prog: yieldProg, scheme: BlockedFast, nctx: 2},
	} {
		m := sc.build(t)
		var yes, no int
		for i := 0; i < 60_000; i++ {
			before := m.proc.Stats.Retired
			got := m.proc.Step()
			if want := m.proc.Stats.Retired != before; got != want {
				t.Fatalf("%s: cycle %d: Step reported retired=%v, Stats.Retired moved=%v", sc.name, i, got, want)
			}
			if got {
				yes++
			} else {
				no++
			}
		}
		if yes == 0 || no == 0 {
			t.Errorf("%s: %d retiring and %d non-retiring cycles; the scenario needs both", sc.name, yes, no)
		}
	}
}

// Package fuzz is the cross-scheme differential interleaving fuzzer: a
// seeded generator of race-free SPMD programs, an orchestration layer
// that runs each program under systematically varied context orderings
// on every machine model, an oracle that hashes architectural state at
// context switches and at halt, and a shrinking pass that minimizes
// failing program/seed pairs into replayable reproducers.
//
// The safety claim under test is the paper's: the multiplexing policy —
// Blocked, Interleaved, or any switch schedule in between — must not
// change architectural semantics, only timing. Generated programs are
// data-race-free by construction (shared accumulators are only touched
// inside TAS critical sections; cross-phase reads are separated by
// sense-reversing barriers; accumulator updates are commutative), so
// their final memory must be byte-identical across every ordering,
// scheme, machine, fast-forward mode, and chaos perturbation.
package fuzz

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/seeded"
)

// Program address-space constants shared by generation, replay, and the
// .s reproducer renderer (the rendered source re-assembles to the exact
// same instruction stream only because these are fixed).
const (
	CodeBase = 0x1000
	DataBase = 0x0010_0000
	DataSize = 1 << 20
)

// Register discipline. Generated programs keep ordering-independence by
// construction: every register a thread branches on or stores to memory
// holds a value that depends only on (tid, nthreads, program constants,
// barrier-separated accumulator reads) — never on how contexts were
// multiplexed. The two "dirty" registers used by spin loops (whose final
// values legitimately depend on timing) are quarantined and excluded
// from the clean digest.
const (
	regPriv  = isa.R6  // base of this thread's private arena (tid-strided)
	regBar   = isa.R7  // barrier base
	regSense = isa.R8  // barrier sense (starts 0)
	regAddr  = isa.R9  // address scratch, deterministic
	regCtr   = isa.R18 // loop counter
	regAddr2 = isa.R19 // second scratch, deterministic
	regTmp1  = isa.R24 // dirty: lock/barrier spin scratch
	regTmp2  = isa.R25 // dirty: critical-section RMW scratch
)

// cleanInts / cleanFPs are the pools generated compute ops draw from;
// their final values are ordering-independent.
var cleanInts = [...]isa.Reg{isa.R10, isa.R11, isa.R12, isa.R13, isa.R14, isa.R15, isa.R16, isa.R17}
var cleanFPs = [...]isa.Reg{isa.F8, isa.F9, isa.F10, isa.F11, isa.F12, isa.F13}

// DirtyRegs are the registers whose final values are legitimately
// timing-dependent (spin-loop scratch); the clean digest skips them.
var DirtyRegs = map[isa.Reg]bool{regTmp1: true, regTmp2: true}

// Private-arena geometry: each thread owns privStride bytes, addressed
// as privSlots 8-byte slots. Items use slots 0..privItemSlots-1; the
// epilogue dumps the clean register pools into the remaining slots so
// final memory captures the computed results.
const (
	privStride    = 256 // must stay 1<<privShift
	privShift     = 8
	privSlots     = privStride / 8
	privItemSlots = 24
)

// Item kinds — the generator grammar. Each item expands to a short,
// self-contained instruction sequence; see emitter.item.
const (
	KALU    = "alu"     // N integer ops on the clean pool, seeded by V
	KFP     = "fp"      // N floating-point ops on the clean FP pool
	KDiv    = "div"     // a long-latency op (div/rem/fdiv/fsqrt) + auto-yield
	KLoad   = "load"    // load from a read-only word (B=0) or private slot (B=1)
	KStore  = "store"   // store a clean int register to private slot A
	KStoreF = "storef"  // store a clean FP register to private slot A
	KBranch = "branch"  // data-dependent forward branch over N clean ops
	KLoop   = "loop"    // N-iteration counted loop; B>=0 adds a locked RMW on acc B
	KCrit   = "crit"    // .region sync critical section: N locked RMWs on acc B
	KRead   = "readacc" // read acc A (not updated this phase) into the clean pool
)

// Item is one grammar production. Field meaning depends on Kind (see the
// kind constants); unused fields are zero. Items are concrete — all
// indices resolved — so a Spec replays identically with no rng involved.
type Item struct {
	Kind string `json:"k"`
	A    int    `json:"a,omitempty"`
	B    int    `json:"b,omitempty"`
	N    int    `json:"n,omitempty"`
	V    uint64 `json:"v,omitempty"`
}

// Spec is a complete generated program: the JSON-serializable source of
// truth for replay. After shrinking, a Spec is no longer derivable from
// its seed, so reproducers persist the whole structure.
type Spec struct {
	Seed    int64     `json:"seed"`
	Threads int       `json:"threads"`
	NAccs   int       `json:"naccs"`
	NLocks  int       `json:"nlocks"`
	ROW     []uint32  `json:"ro_words"`
	ROD     []float64 `json:"ro_doubles"`
	AccInit []uint32  `json:"acc_init"`
	// AccOps fixes each accumulator's update operator ("add" or "xor")
	// for its whole lifetime. Updates to one accumulator must commute
	// pairwise — all-ADD or all-XOR does, but a mix like (a+v)^w depends
	// on lock-acquisition order, which would make final memory
	// schedule-dependent even with perfect locking.
	AccOps []string `json:"acc_ops"`
	// AccLock fixes which lock guards each accumulator. Every update to
	// one accumulator must go through the same lock: two critical
	// sections holding different locks can interleave their
	// load-modify-store sequences on a shared accumulator, losing
	// updates — a data race even when the operators commute.
	AccLock []int `json:"acc_lock"`
	// Mut names a deliberate semantics-breaking mutation applied after
	// build ("" = none). Used to prove the oracle catches scheme bugs.
	Mut    string   `json:"mut,omitempty"`
	Phases [][]Item `json:"phases"`
}

// MutTASPlain is the test-only injected bug: every TAS in a sync region
// is demoted to a plain LW, so locks no longer close and critical
// sections race. The oracle must observe lost updates as divergence.
const MutTASPlain = "tas-plain"

// sm is the only rng the fuzzer uses: the shared splitmix64 stream, so
// generated programs are stable across Go releases (unlike math/rand's
// default source).
type sm struct{ seeded.Stream }

func newSM(seed uint64) *sm { return &sm{seeded.Stream(seed)} }

func (x *sm) intn(n int) int { return int(x.Next() % uint64(n)) }

func (x *sm) u32() uint32 { return uint32(x.Next()) }

// f64 returns a finite float in roughly [-500, 500).
func (x *sm) f64() float64 { return float64(x.Next()>>11)/(1<<53)*1000 - 500 }

// Generate derives a complete Spec from (seed, threads). The same pair
// always yields the same Spec; per-program seeds in a sweep come from
// experiments.DeriveSeed so neighbouring programs are decorrelated.
func Generate(seed int64, threads int) *Spec {
	r := newSM(uint64(seed) ^ 0xD1F7_0A55_5EED_F00D)
	s := &Spec{Seed: seed, Threads: threads}
	s.NAccs = 2 + r.intn(4)
	s.NLocks = 1 + r.intn(3)
	s.ROW = make([]uint32, 4+r.intn(5))
	for i := range s.ROW {
		s.ROW[i] = r.u32()
	}
	s.ROD = make([]float64, 3+r.intn(4))
	for i := range s.ROD {
		s.ROD[i] = r.f64()
	}
	s.AccInit = make([]uint32, s.NAccs)
	for i := range s.AccInit {
		s.AccInit[i] = uint32(r.intn(1000))
	}
	s.AccOps = make([]string, s.NAccs)
	for i := range s.AccOps {
		if r.intn(2) == 0 {
			s.AccOps[i] = "add"
		} else {
			s.AccOps[i] = "xor"
		}
	}
	s.AccLock = make([]int, s.NAccs)
	for i := range s.AccLock {
		s.AccLock[i] = r.intn(s.NLocks)
	}

	nPhases := 1 + r.intn(3)
	hasCrit := false
	var firstWritable []int
	for p := 0; p < nPhases; p++ {
		// Partition accumulators for this phase: crit/loop items update
		// only "writable" accs, readacc items read only the others, so a
		// phase never reads an acc it races on. At least one of each
		// side when possible.
		var writable, readable []int
		for a := 0; a < s.NAccs; a++ {
			if r.intn(2) == 0 {
				writable = append(writable, a)
			} else {
				readable = append(readable, a)
			}
		}
		if len(writable) == 0 {
			writable = append(writable, readable[len(readable)-1])
			readable = readable[:len(readable)-1]
		}
		if p == 0 {
			firstWritable = writable
		}
		nItems := 3 + r.intn(6)
		items := make([]Item, 0, nItems)
		for k := 0; k < nItems; k++ {
			it := s.genItem(r, p, writable, readable)
			if it.Kind == KCrit || (it.Kind == KLoop && it.B >= 0) {
				hasCrit = true
			}
			items = append(items, it)
		}
		s.Phases = append(s.Phases, items)
	}
	// Every program exercises the sync path at least once: the fuzzer's
	// reason to exist is the .region sync/TAS machinery.
	if !hasCrit {
		acc := firstWritable[r.intn(len(firstWritable))]
		s.Phases[0] = append(s.Phases[0], Item{
			Kind: KCrit,
			A:    s.AccLock[acc],
			B:    acc,
			N:    1 + r.intn(2),
			V:    r.Next(),
		})
	}
	return s
}

func (s *Spec) genItem(r *sm, phase int, writable, readable []int) Item {
	for {
		switch r.intn(10) {
		case 0, 1:
			return Item{Kind: KALU, N: 1 + r.intn(6), V: r.Next()}
		case 2:
			return Item{Kind: KFP, N: 1 + r.intn(4), V: r.Next()}
		case 3:
			if r.intn(2) == 0 {
				return Item{Kind: KLoad, A: r.intn(len(s.ROW)), B: 0, V: r.Next()}
			}
			return Item{Kind: KLoad, A: r.intn(privItemSlots), B: 1, V: r.Next()}
		case 4:
			if r.intn(3) == 0 {
				return Item{Kind: KStoreF, A: r.intn(privItemSlots), V: r.Next()}
			}
			return Item{Kind: KStore, A: r.intn(privItemSlots), V: r.Next()}
		case 5:
			return Item{Kind: KBranch, N: 1 + r.intn(3), V: r.Next()}
		case 6:
			it := Item{Kind: KLoop, N: 1 + r.intn(6), B: -1, V: r.Next()}
			if r.intn(2) == 0 {
				it.B = writable[r.intn(len(writable))]
				it.A = s.AccLock[it.B]
			}
			return it
		case 7:
			acc := writable[r.intn(len(writable))]
			return Item{
				Kind: KCrit,
				A:    s.AccLock[acc],
				B:    acc,
				N:    1 + r.intn(3),
				V:    r.Next(),
			}
		case 8:
			if len(readable) == 0 {
				continue // no safely-readable acc this phase; redraw
			}
			return Item{
				Kind: KRead,
				A:    readable[r.intn(len(readable))],
				B:    r.intn(privItemSlots),
				V:    r.Next(),
			}
		case 9:
			return Item{Kind: KDiv, V: r.Next()}
		}
	}
}

// Validate checks structural bounds and the race-freedom invariant: a
// readacc item must not name an accumulator updated in its own phase
// (same-phase read/update pairs would be racy, making "divergence" a
// generator artifact rather than a simulator bug). Replay and the
// native fuzz targets run this before building.
func (s *Spec) Validate() error {
	if err := checkKnobs(s.Threads, s.Mut); err != nil {
		return err
	}
	if s.NAccs < 1 || s.NAccs > 16 {
		return fmt.Errorf("fuzz: naccs %d out of range [1,16]", s.NAccs)
	}
	if s.NLocks < 1 || s.NLocks > 8 {
		return fmt.Errorf("fuzz: nlocks %d out of range [1,8]", s.NLocks)
	}
	if len(s.ROW) < 1 || len(s.ROW) > 64 || len(s.ROD) > 64 {
		return fmt.Errorf("fuzz: read-only pools out of range")
	}
	if len(s.AccInit) != s.NAccs {
		return fmt.Errorf("fuzz: acc_init has %d entries, want %d", len(s.AccInit), s.NAccs)
	}
	if len(s.AccOps) != s.NAccs {
		return fmt.Errorf("fuzz: acc_ops has %d entries, want %d", len(s.AccOps), s.NAccs)
	}
	for i, op := range s.AccOps {
		if op != "add" && op != "xor" {
			return fmt.Errorf("fuzz: acc_ops[%d] = %q, want add or xor", i, op)
		}
	}
	if len(s.AccLock) != s.NAccs {
		return fmt.Errorf("fuzz: acc_lock has %d entries, want %d", len(s.AccLock), s.NAccs)
	}
	for i, l := range s.AccLock {
		if l < 0 || l >= s.NLocks {
			return fmt.Errorf("fuzz: acc_lock[%d] = %d out of range [0,%d)", i, l, s.NLocks)
		}
	}
	if len(s.Phases) < 1 || len(s.Phases) > 8 {
		return fmt.Errorf("fuzz: %d phases out of range [1,8]", len(s.Phases))
	}
	for pi, items := range s.Phases {
		if len(items) > 64 {
			return fmt.Errorf("fuzz: phase %d has %d items (max 64)", pi, len(items))
		}
		updated := map[int]bool{}
		for _, it := range items {
			if it.Kind == KCrit || (it.Kind == KLoop && it.B >= 0) {
				updated[it.B] = true
			}
		}
		for ii, it := range items {
			if err := s.validateItem(it, updated); err != nil {
				return fmt.Errorf("fuzz: phase %d item %d: %w", pi, ii, err)
			}
		}
	}
	return nil
}

// checkKnobs checks the two Spec fields a SweepConfig sets for every
// program it generates: the thread count and the mutation name.
func checkKnobs(threads int, mut string) error {
	if threads < 1 || threads > 8 {
		return fmt.Errorf("fuzz: threads %d out of range [1,8]", threads)
	}
	if mut != "" && mut != MutTASPlain {
		return fmt.Errorf("fuzz: unknown mutation %q", mut)
	}
	return nil
}

func (s *Spec) validateItem(it Item, updated map[int]bool) error {
	slotOK := func(n int) bool { return n >= 0 && n < privItemSlots }
	switch it.Kind {
	case KALU:
		if it.N < 1 || it.N > 16 {
			return fmt.Errorf("alu count %d", it.N)
		}
	case KFP:
		if it.N < 1 || it.N > 16 {
			return fmt.Errorf("fp count %d", it.N)
		}
	case KDiv:
	case KLoad:
		switch it.B {
		case 0:
			if it.A < 0 || it.A >= len(s.ROW) {
				return fmt.Errorf("load ro index %d", it.A)
			}
		case 1:
			if !slotOK(it.A) {
				return fmt.Errorf("load slot %d", it.A)
			}
		default:
			return fmt.Errorf("load variant %d", it.B)
		}
	case KStore, KStoreF:
		if !slotOK(it.A) {
			return fmt.Errorf("store slot %d", it.A)
		}
	case KBranch:
		if it.N < 1 || it.N > 8 {
			return fmt.Errorf("branch body %d", it.N)
		}
	case KLoop:
		if it.N < 1 || it.N > 32 {
			return fmt.Errorf("loop count %d", it.N)
		}
		if it.B >= s.NAccs {
			return fmt.Errorf("loop acc %d", it.B)
		}
		if it.B >= 0 && it.A != s.AccLock[it.B] {
			return fmt.Errorf("loop updates acc %d under lock %d, want its assigned lock %d (cross-lock updates race)",
				it.B, it.A, s.AccLock[it.B])
		}
	case KCrit:
		if it.N < 1 || it.N > 8 {
			return fmt.Errorf("crit reps %d", it.N)
		}
		if it.B < 0 || it.B >= s.NAccs {
			return fmt.Errorf("crit acc %d", it.B)
		}
		if it.A != s.AccLock[it.B] {
			return fmt.Errorf("crit updates acc %d under lock %d, want its assigned lock %d (cross-lock updates race)",
				it.B, it.A, s.AccLock[it.B])
		}
	case KRead:
		if it.A < 0 || it.A >= s.NAccs {
			return fmt.Errorf("readacc index %d", it.A)
		}
		if !slotOK(it.B) {
			return fmt.Errorf("readacc slot %d", it.B)
		}
		if updated[it.A] {
			return fmt.Errorf("readacc %d races with a same-phase update", it.A)
		}
	default:
		return fmt.Errorf("unknown kind %q", it.Kind)
	}
	return nil
}

// Name is the program name used in builds, reproducer directories, and
// reports.
func (s *Spec) Name() string { return fmt.Sprintf("fuzz-%016x", uint64(s.Seed)) }

// Items counts grammar productions across all phases (shrinking reports
// before/after sizes in these units).
func (s *Spec) Items() int {
	n := 0
	for _, ph := range s.Phases {
		n += len(ph)
	}
	return n
}

// Clone deep-copies the spec (the shrinker mutates candidates freely).
func (s *Spec) Clone() *Spec {
	c := *s
	c.ROW = append([]uint32(nil), s.ROW...)
	c.ROD = append([]float64(nil), s.ROD...)
	c.AccInit = append([]uint32(nil), s.AccInit...)
	c.AccOps = append([]string(nil), s.AccOps...)
	c.AccLock = append([]int(nil), s.AccLock...)
	c.Phases = make([][]Item, len(s.Phases))
	for i, ph := range s.Phases {
		c.Phases[i] = append([]Item(nil), ph...)
	}
	return &c
}

// layout is the data-arena map for one build. Allocation order is fixed
// so addresses are a pure function of the Spec — the .s renderer depends
// on this to reproduce the exact same absolute addresses.
type layout struct {
	priv  uint32 // Threads × privStride, 64-aligned
	bar   uint32
	row   uint32 // len(ROW) words
	rod   uint32 // len(ROD) doubles
	acc   uint32 // NAccs words, 64-aligned
	locks []uint32
}

func allocLayout(b *prog.Builder, s *Spec) layout {
	var lay layout
	lay.priv = b.Alloc(uint32(s.Threads)*privStride, 64)
	lay.bar = b.AllocBarrier()
	lay.row = b.Alloc(uint32(len(s.ROW))*4, 8)
	lay.rod = b.Alloc(uint32(len(s.ROD))*8, 8)
	lay.acc = b.Alloc(uint32(s.NAccs)*4, 64)
	for i := 0; i < s.NLocks; i++ {
		lay.locks = append(lay.locks, b.AllocLock())
	}
	return lay
}

func (l *layout) accAddr(i int) uint32 { return l.acc + 4*uint32(i) }
func (l *layout) rowAddr(i int) uint32 { return l.row + 4*uint32(i) }
func (l *layout) rodAddr(i int) uint32 { return l.rod + 8*uint32(i) }

// BuildProgram expands the spec into a linked program compiled for the
// given yield mode. The instruction stream is identical across modes
// except for the BACKOFF/SWITCH yield points, so final memory must match
// across modes too (yields never touch registers or memory).
func BuildProgram(s *Spec, mode prog.YieldMode) (*prog.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := prog.NewBuilder(s.Name(), CodeBase, DataBase, DataSize)
	b.SetYield(mode)
	b.SetAutoTolerate(true)
	lay := allocLayout(b, s)
	for i, v := range s.ROW {
		b.InitW(lay.rowAddr(i), v)
	}
	for i, f := range s.ROD {
		b.InitF(lay.rodAddr(i), f)
	}
	for i, v := range s.AccInit {
		b.InitW(lay.accAddr(i), v)
	}

	g := &emitter{b: b, s: s, lay: lay}
	g.prologue()
	for pi, items := range s.Phases {
		if pi > 0 {
			g.barrier()
		}
		for _, it := range items {
			g.item(it)
		}
	}
	g.epilogue()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	if s.Mut != "" {
		if err := applyMutation(p, s.Mut); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// applyMutation injects a deliberate scheme bug after build (the Builder
// API cannot express broken sync, by design). Mutated instructions are
// re-decoded so the pipeline's hazard metadata matches the new opcode.
func applyMutation(p *prog.Program, mut string) error {
	switch mut {
	case MutTASPlain:
		hit := false
		for i := range p.Insts {
			if p.Insts[i].Op == isa.TAS {
				p.Insts[i].Op = isa.LW
				p.Insts[i].Decode()
				hit = true
			}
		}
		if !hit {
			return fmt.Errorf("fuzz: mutation %q found no TAS to break", mut)
		}
		return nil
	}
	return fmt.Errorf("fuzz: unknown mutation %q", mut)
}

// emitter expands items through the Builder.
type emitter struct {
	b    *prog.Builder
	s    *Spec
	lay  layout
	nlab int
}

func (g *emitter) label() string {
	g.nlab++
	return fmt.Sprintf("L%d", g.nlab)
}

func (g *emitter) prologue() {
	b := g.b
	// regPriv = private arena base + tid*privStride.
	b.La(regPriv, g.lay.priv)
	b.Sll(regAddr2, isa.R4, privShift)
	b.Add(regPriv, regPriv, regAddr2)
	if len(g.s.Phases) > 1 {
		b.La(regBar, g.lay.bar) // regSense starts 0 (registers reset to 0)
	}
	// Clean integer pool: tid-derived and constant seeds.
	r := newSM(uint64(g.s.Seed) ^ 0xC0DE_5EED)
	b.Addi(cleanInts[0], isa.R4, 1) // tid+1 (nonzero per-thread value)
	b.Move(cleanInts[1], isa.R5)    // nthreads
	for i := 2; i < 6; i++ {
		b.Li(cleanInts[i], r.u32())
	}
	b.Mul(cleanInts[6], cleanInts[0], cleanInts[2])
	b.Xor(cleanInts[7], cleanInts[3], cleanInts[4])
	// Clean FP pool: converted ints plus read-only doubles.
	b.Mtc1(cleanFPs[0], cleanInts[0])
	b.La(regAddr, g.lay.rod)
	for i := 0; i < 3; i++ {
		if i < len(g.s.ROD) {
			b.Fld(cleanFPs[1+i], regAddr, int32(8*i))
		} else {
			b.Mtc1(cleanFPs[1+i], cleanInts[2+i])
		}
	}
	b.Mtc1(cleanFPs[4], cleanInts[5])
	b.FAdd(cleanFPs[5], cleanFPs[0], cleanFPs[4])
}

// epilogue dumps the clean pools into the private arena (so register
// results show up in the final-memory digest) and halts.
func (g *emitter) epilogue() {
	b := g.b
	for i := 0; i < 6; i++ {
		b.Sw(cleanInts[i], regPriv, int32(privItemSlots*8+4*i))
	}
	for i := 0; i < 5; i++ {
		b.Fsd(cleanFPs[i], regPriv, int32(privItemSlots*8+24+8*i))
	}
	b.Halt()
}

func (g *emitter) barrier() {
	b := g.b
	b.Barrier(regBar, isa.R5, regSense, regTmp1, regTmp2)
}

func (g *emitter) item(it Item) {
	b := g.b
	r := newSM(it.V ^ 0x17EA_D00D)
	switch it.Kind {
	case KALU:
		for i := 0; i < it.N; i++ {
			g.aluOp(r)
		}
	case KFP:
		for i := 0; i < it.N; i++ {
			g.fpOp(r)
		}
	case KDiv:
		d := cleanInts[r.intn(len(cleanInts))]
		a := cleanInts[r.intn(len(cleanInts))]
		c := cleanInts[r.intn(len(cleanInts))]
		switch r.intn(6) {
		case 0:
			b.Div(d, a, c)
		case 1:
			b.Rem(d, a, c)
		case 2:
			b.Divu(d, a, c)
		case 3:
			b.FDivS(g.fp(r), g.fp(r), g.fp(r))
		case 4:
			b.FDivD(g.fp(r), g.fp(r), g.fp(r))
		case 5:
			b.FSqrt(g.fp(r), g.fp(r))
		}
	case KLoad:
		d := cleanInts[r.intn(len(cleanInts))]
		if it.B == 0 {
			b.La(regAddr, g.lay.rowAddr(it.A))
			b.Lw(d, regAddr, 0)
		} else {
			b.Lw(d, regPriv, int32(8*it.A))
		}
	case KStore:
		b.Sw(cleanInts[r.intn(len(cleanInts))], regPriv, int32(8*it.A))
	case KStoreF:
		b.Fsd(g.fp(r), regPriv, int32(8*it.A))
	case KBranch:
		mask := []int32{1, 3, 7}[r.intn(3)]
		skip := g.label()
		b.Andi(regAddr2, cleanInts[r.intn(len(cleanInts))], mask)
		if r.intn(2) == 0 {
			b.Beq(regAddr2, isa.R0, skip)
		} else {
			b.Bne(regAddr2, isa.R0, skip)
		}
		for i := 0; i < it.N; i++ {
			g.aluOp(r)
		}
		b.Label(skip)
	case KLoop:
		top := g.label()
		b.Li(regCtr, uint32(it.N))
		b.Label(top)
		body := 1 + r.intn(3)
		for i := 0; i < body; i++ {
			switch r.intn(3) {
			case 0:
				g.aluOp(r)
			case 1:
				b.Sw(cleanInts[r.intn(len(cleanInts))], regPriv, int32(8*r.intn(privItemSlots)))
			case 2:
				b.Lw(cleanInts[r.intn(len(cleanInts))], regPriv, int32(8*r.intn(privItemSlots)))
			}
		}
		if it.B >= 0 {
			g.critRMW(it.A, it.B, 1, r)
		}
		b.Addi(regCtr, regCtr, -1)
		b.Bgtz(regCtr, top)
	case KCrit:
		g.critRMW(it.A, it.B, it.N, r)
	case KRead:
		d := cleanInts[r.intn(len(cleanInts))]
		b.La(regAddr, g.lay.accAddr(it.A))
		b.Lw(d, regAddr, 0)
		b.Sw(d, regPriv, int32(8*it.B))
	}
	// Occasional explicit latency-tolerance point between items, so
	// blocked-scheme builds get switch opportunities in compute code.
	if r.intn(3) == 0 {
		b.Yield(int32(4 + r.intn(12)))
	}
}

// critRMW emits one critical section: acquire lock, apply n
// read-modify-writes to accumulator acc, release. Every update to a
// given accumulator — across all items, phases, and threads — uses that
// accumulator's single AccOps operator, so the updates commute pairwise
// and the final value is independent of the order threads win the lock.
// (Mixing operators on one accumulator would break this: (a+v)^w
// depends on acquisition order even with perfect locking.)
func (g *emitter) critRMW(lock, acc, n int, r *sm) {
	b := g.b
	b.La(regAddr, g.lay.locks[lock])
	b.LockAcquire(regAddr, regTmp1)
	b.La(regAddr2, g.lay.accAddr(acc))
	for j := 0; j < n; j++ {
		src := cleanInts[r.intn(len(cleanInts))]
		b.Lw(regTmp2, regAddr2, 0)
		if g.s.AccOps[acc] == "add" {
			b.Add(regTmp2, regTmp2, src)
		} else {
			b.Xor(regTmp2, regTmp2, src)
		}
		b.Sw(regTmp2, regAddr2, 0)
	}
	b.LockRelease(regAddr)
}

func (g *emitter) fp(r *sm) isa.Reg { return cleanFPs[r.intn(len(cleanFPs))] }

func (g *emitter) aluOp(r *sm) {
	b := g.b
	d := cleanInts[r.intn(len(cleanInts))]
	a := cleanInts[r.intn(len(cleanInts))]
	c := cleanInts[r.intn(len(cleanInts))]
	switch r.intn(10) {
	case 0:
		b.Add(d, a, c)
	case 1:
		b.Sub(d, a, c)
	case 2:
		b.Xor(d, a, c)
	case 3:
		b.And(d, a, c)
	case 4:
		b.Or(d, a, c)
	case 5:
		b.Sltu(d, a, c)
	case 6:
		b.Mul(d, a, c)
	case 7:
		b.Addi(d, a, int32(r.intn(255)-127))
	case 8:
		b.Xori(d, a, int32(r.intn(0x7FFF)))
	case 9:
		b.Srl(d, a, int32(r.intn(31)))
	}
}

func (g *emitter) fpOp(r *sm) {
	b := g.b
	d, a, c := g.fp(r), g.fp(r), g.fp(r)
	switch r.intn(7) {
	case 0:
		b.FAdd(d, a, c)
	case 1:
		b.FSub(d, a, c)
	case 2:
		b.FMul(d, a, c)
	case 3:
		b.FNeg(d, a)
	case 4:
		b.FAbs(d, a)
	case 5:
		b.FCvt(d, a)
	case 6:
		b.Mtc1(d, cleanInts[r.intn(len(cleanInts))])
	}
}

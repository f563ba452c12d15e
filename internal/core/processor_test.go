package core

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/prog"
)

// fakeMem is a trivial timing memory for core tests: instruction fetches
// always hit; a data line misses once with a fixed latency and hits
// afterwards. Preloaded lines always hit.
type fakeMem struct {
	lat     int64
	pending map[uint32]int64
}

func newFakeMem(lat int64) *fakeMem {
	return &fakeMem{lat: lat, pending: make(map[uint32]int64)}
}

func (f *fakeMem) preload(addr uint32) { f.pending[addr>>5] = -1 }

func (f *fakeMem) FetchInst(addr uint32, now int64) (int64, bool) { return now, false }

func (f *fakeMem) AccessData(addr uint32, write bool, pc uint32, now int64) memsys.DataResult {
	line := addr >> 5
	if fill, ok := f.pending[line]; ok {
		if now >= fill {
			return memsys.DataResult{Hit: true, ReadyAt: now + 3, Class: memsys.HitL1}
		}
		return memsys.DataResult{FillAt: fill, Class: memsys.Memory}
	}
	f.pending[line] = now + f.lat
	return memsys.DataResult{FillAt: now + f.lat, Class: memsys.Memory}
}

// idealFetchMem is fakeMem declaring its instruction fetch pure, as the
// multiprocessor's node memory does: the monopolizing schemes then skip
// interlock regions and Advance issues in the pass that classified.
type idealFetchMem struct{ *fakeMem }

func (idealFetchMem) InstFetchIsIdeal() bool { return true }

// perfectMem hits on everything.
type perfectMem struct{}

func (perfectMem) FetchInst(addr uint32, now int64) (int64, bool) { return now, false }
func (perfectMem) AccessData(addr uint32, write bool, pc uint32, now int64) memsys.DataResult {
	return memsys.DataResult{Hit: true, ReadyAt: now + 3, Class: memsys.HitL1}
}

func buildProg(t *testing.T, name string, f func(b *prog.Builder)) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(name, 0x1000, 0x100000, 1<<20)
	f(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sumProgram computes sum of 1..n into R2 and stores it at addr.
func sumProgram(t *testing.T, n int32, addr uint32) *prog.Program {
	return buildProg(t, "sum", func(b *prog.Builder) {
		b.Li(isa.R1, uint32(n)) // counter
		b.Li(isa.R2, 0)         // acc
		b.La(isa.R3, addr)
		b.Label("loop")
		b.Add(isa.R2, isa.R2, isa.R1)
		b.Addi(isa.R1, isa.R1, -1)
		b.Bgtz(isa.R1, "loop")
		b.Sw(isa.R2, isa.R3, 0)
		b.Halt()
	})
}

func TestSingleContextFunctional(t *testing.T) {
	fm := mem.New()
	p := MustNewProcessor(DefaultConfig(Single, 1), perfectMem{}, fm)
	th := NewThread("sum", sumProgram(t, 10, 0x100000))
	p.BindThread(0, th)
	cycles, done := p.RunUntilHalted(100000)
	if !done {
		t.Fatal("program did not halt")
	}
	if got := fm.LoadW(0x100000); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if th.IntReg(isa.R2) != 55 {
		t.Errorf("R2 = %d, want 55", th.IntReg(isa.R2))
	}
	if cycles == 0 || p.Stats.Retired == 0 {
		t.Error("no work recorded")
	}
	// Slot accounting must cover every cycle exactly once.
	var total int64
	for _, s := range p.Stats.Slots {
		total += s
	}
	if total != p.Stats.Cycles {
		t.Errorf("slots sum to %d, cycles = %d", total, p.Stats.Cycles)
	}
}

func TestFPFunctional(t *testing.T) {
	fm := mem.New()
	pr := buildProg(t, "fp", func(b *prog.Builder) {
		a := b.Alloc(32, 8)
		b.InitF(a, 21.0)
		b.InitF(a+8, 2.0)
		b.La(isa.R1, a)
		b.Fld(isa.F1, isa.R1, 0)
		b.Fld(isa.F2, isa.R1, 8)
		b.FMul(isa.F3, isa.F1, isa.F2)  // 42
		b.FDivD(isa.F4, isa.F3, isa.F2) // 21
		b.FAdd(isa.F5, isa.F4, isa.F4)  // 42
		b.Fsd(isa.F5, isa.R1, 16)
		b.Halt()
	})
	pr.LoadInit(fm)
	p := MustNewProcessor(DefaultConfig(Single, 1), perfectMem{}, fm)
	th := NewThread("fp", pr)
	p.BindThread(0, th)
	if _, done := p.RunUntilHalted(10000); !done {
		t.Fatal("did not halt")
	}
	base := uint32(pr.Init[0].Addr)
	if got := fm.LoadD(base + 16); got != 0x4045000000000000 { // 42.0
		t.Errorf("result bits = %#x, want 42.0", got)
	}
	// The divide's 61-cycle latency must show up as long stalls.
	if p.Stats.Slots[SlotStallLong] < 30 {
		t.Errorf("long stalls = %d, expected the FDIV latency exposed", p.Stats.Slots[SlotStallLong])
	}
}

func TestLoadUseLatency(t *testing.T) {
	// lw followed immediately by a dependent add: two delay slots.
	fm := mem.New()
	pr := buildProg(t, "lu", func(b *prog.Builder) {
		b.La(isa.R1, 0x100000)
		b.Lw(isa.R2, isa.R1, 0)
		b.Add(isa.R3, isa.R2, isa.R2)
		b.Halt()
	})
	fake := newFakeMem(50)
	fake.preload(0x100000)
	p := MustNewProcessor(DefaultConfig(Single, 1), fake, fm)
	p.BindThread(0, NewThread("lu", pr))
	if _, done := p.RunUntilHalted(1000); !done {
		t.Fatal("did not halt")
	}
	if got := p.Stats.Slots[SlotStallShort]; got != 2 {
		t.Errorf("load-use stall = %d slots, want 2", got)
	}
}

func TestSingleContextLockupFree(t *testing.T) {
	// A load miss under the single-context scheme must not stall
	// independent following instructions.
	fm := mem.New()
	pr := buildProg(t, "lf", func(b *prog.Builder) {
		b.La(isa.R1, 0x100000)
		b.Lw(isa.R2, isa.R1, 0) // misses, 50 cycles
		for i := 0; i < 10; i++ {
			b.Add(isa.R3, isa.R4, isa.R5) // independent
		}
		b.Add(isa.R6, isa.R2, isa.R2) // dependent: waits for the fill
		b.Halt()
	})
	p := MustNewProcessor(DefaultConfig(Single, 1), newFakeMem(50), fm)
	p.BindThread(0, NewThread("lf", pr))
	cycles, done := p.RunUntilHalted(1000)
	if !done {
		t.Fatal("did not halt")
	}
	// Load issues ~cycle 2; fill at ~52; dependent add at ~52; halt ~53.
	if cycles > 60 {
		t.Errorf("took %d cycles; independent work did not overlap the miss", cycles)
	}
	if p.Stats.Slots[SlotDMem] < 30 {
		t.Errorf("dmem stalls = %d, want the exposed fill wait", p.Stats.Slots[SlotDMem])
	}
	if p.Stats.Slots[SlotSwitch] != 0 {
		t.Error("single context should never pay switch cost")
	}
}

func TestBranchPredictionLoop(t *testing.T) {
	// A hot loop: the BTB should learn the back edge, so mispredicts stay
	// around 2 (first encounter + final fall-through).
	fm := mem.New()
	p := MustNewProcessor(DefaultConfig(Single, 1), perfectMem{}, fm)
	p.BindThread(0, NewThread("sum", sumProgram(t, 100, 0x100000)))
	if _, done := p.RunUntilHalted(10000); !done {
		t.Fatal("did not halt")
	}
	if p.Stats.Branches < 100 {
		t.Fatalf("branches = %d", p.Stats.Branches)
	}
	if p.Stats.Mispredicts > 4 {
		t.Errorf("mispredicts = %d, want <= 4 with a warm BTB", p.Stats.Mispredicts)
	}
}

func TestNoBTBPaysTakenPenalty(t *testing.T) {
	fm := mem.New()
	cfg := DefaultConfig(Single, 1)
	cfg.BTBEntries = 0
	p := MustNewProcessor(cfg, perfectMem{}, fm)
	p.BindThread(0, NewThread("sum", sumProgram(t, 100, 0x100000)))
	cyclesNoBTB, done := p.RunUntilHalted(100000)
	if !done {
		t.Fatal("did not halt")
	}

	fm2 := mem.New()
	p2 := MustNewProcessor(DefaultConfig(Single, 1), perfectMem{}, fm2)
	p2.BindThread(0, NewThread("sum", sumProgram(t, 100, 0x100000)))
	cyclesBTB, _ := p2.RunUntilHalted(100000)

	if cyclesNoBTB <= cyclesBTB {
		t.Errorf("BTB off (%d cycles) should be slower than on (%d)", cyclesNoBTB, cyclesBTB)
	}
}

// Figure 2: with four active contexts, a data miss costs the blocked
// scheme 7 cycles of switch overhead (full flush) but the interleaved
// scheme only ~2 (selective squash of the faulting context's slots).
func TestFigure2SwitchCost(t *testing.T) {
	mkThreads := func(t *testing.T) []*prog.Program {
		var ps []*prog.Program
		// Context 0 misses immediately; the rest run long add chains.
		ps = append(ps, buildProg(t, "misser", func(b *prog.Builder) {
			b.La(isa.R1, 0x100000)
			b.Lw(isa.R2, isa.R1, 0) // miss
			for i := 0; i < 50; i++ {
				b.Add(isa.R3, isa.R4, isa.R5)
			}
			b.Halt()
		}))
		for i := 0; i < 3; i++ {
			ps = append(ps, buildProg(t, "adder", func(b *prog.Builder) {
				for j := 0; j < 200; j++ {
					b.Add(isa.R3, isa.R4, isa.R5)
				}
				b.Halt()
			}))
		}
		return ps
	}

	run := func(s Scheme) *Stats {
		fm := mem.New()
		p := MustNewProcessor(DefaultConfig(s, 4), newFakeMem(40), fm)
		for i, pr := range mkThreads(t) {
			p.BindThread(i, NewThread(pr.Name, pr))
		}
		if _, done := p.RunUntilHalted(5000); !done {
			t.Fatalf("%v did not finish", s)
		}
		return &p.Stats
	}

	blocked := run(Blocked)
	inter := run(Interleaved)

	if got := blocked.Slots[SlotSwitch]; got != 7 {
		t.Errorf("blocked switch slots = %d, want 7 (pipeline depth)", got)
	}
	if got := inter.Slots[SlotSwitch]; got != 2 {
		t.Errorf("interleaved switch slots = %d, want 2 (ceil(7/4))", got)
	}
}

// Figure 3: the four-thread example. Threads A (2 insns), B (3 insns with a
// two-cycle dependency), C (4 insns) and D (6 insns), each ending in a
// cache miss. The interleaved scheme must finish all four well before the
// blocked scheme and hide B's pipeline dependency completely.
func TestFigure3Timeline(t *testing.T) {
	build := func(t *testing.T, fake *fakeMem) []*prog.Program {
		hitAddr := uint32(0x200000)
		fake.preload(hitAddr)
		a := buildProg(t, "A", func(b *prog.Builder) {
			b.Add(isa.R2, isa.R3, isa.R4)
			b.Lw(isa.R5, isa.R1, 0) // R1=0 -> address 0: miss
			b.Halt()
		})
		bb := buildProg(t, "B", func(b *prog.Builder) {
			b.La(isa.R6, hitAddr)
			b.Lw(isa.R2, isa.R6, 0)       // hit: latency 3
			b.Add(isa.R3, isa.R2, isa.R2) // 2-cycle dependency when adjacent
			b.Lw(isa.R5, isa.R1, 64)      // miss
			b.Halt()
		})
		c := buildProg(t, "C", func(b *prog.Builder) {
			for i := 0; i < 3; i++ {
				b.Add(isa.R2, isa.R3, isa.R4)
			}
			b.Lw(isa.R5, isa.R1, 128) // miss
			b.Halt()
		})
		d := buildProg(t, "D", func(b *prog.Builder) {
			for i := 0; i < 5; i++ {
				b.Add(isa.R2, isa.R3, isa.R4)
			}
			b.Lw(isa.R5, isa.R1, 192) // miss
			b.Halt()
		})
		return []*prog.Program{a, bb, c, d}
	}

	run := func(s Scheme) (int64, *Stats) {
		fake := newFakeMem(20)
		fm := mem.New()
		p := MustNewProcessor(DefaultConfig(s, 4), fake, fm)
		for i, pr := range build(t, fake) {
			p.BindThread(i, NewThread(pr.Name, pr))
		}
		cycles, done := p.RunUntilHalted(2000)
		if !done {
			t.Fatalf("%v did not finish", s)
		}
		return cycles, &p.Stats
	}

	bCycles, bStats := run(Blocked)
	iCycles, iStats := run(Interleaved)

	if iCycles >= bCycles {
		t.Errorf("interleaved (%d cycles) must beat blocked (%d)", iCycles, bCycles)
	}
	// Four misses: blocked pays 7 each.
	if got := bStats.Slots[SlotSwitch]; got != 28 {
		t.Errorf("blocked switch slots = %d, want 28", got)
	}
	if got := iStats.Slots[SlotSwitch]; got >= 28 || got < 4 {
		t.Errorf("interleaved switch slots = %d, want within [4, 28)", got)
	}
	// B's two-cycle dependency is hidden by interleaving but exposed in
	// the blocked schedule.
	if bStats.Slots[SlotStallShort] < 2 {
		t.Errorf("blocked short stalls = %d, want >= 2", bStats.Slots[SlotStallShort])
	}
	if iStats.Slots[SlotStallShort] != 0 {
		t.Errorf("interleaved short stalls = %d, want 0 (dependency hidden)", iStats.Slots[SlotStallShort])
	}
}

// Table 4: the explicit switch costs 3 cycles, the backoff 1.
func TestTable4ExplicitCosts(t *testing.T) {
	run := func(op func(b *prog.Builder)) *Stats {
		fm := mem.New()
		pr := buildProg(t, "y", func(b *prog.Builder) {
			b.Add(isa.R2, isa.R3, isa.R4)
			op(b)
			b.Add(isa.R2, isa.R3, isa.R4)
			b.Halt()
		})
		scheme := Interleaved
		if pr.Insts[1].Op == isa.SWITCH {
			scheme = Blocked
		}
		p := MustNewProcessor(DefaultConfig(scheme, 2), perfectMem{}, fm)
		p.BindThread(0, NewThread("y", pr))
		// Second context: enough adds to soak up the yield window.
		filler := buildProg(t, "filler", func(b *prog.Builder) {
			for i := 0; i < 100; i++ {
				b.Add(isa.R2, isa.R3, isa.R4)
			}
			b.Halt()
		})
		p.BindThread(1, NewThread("filler", filler))
		if _, done := p.RunUntilHalted(2000); !done {
			t.Fatal("did not finish")
		}
		return &p.Stats
	}

	sw := run(func(b *prog.Builder) {
		b.SetYield(prog.YieldSwitch)
		b.Yield(10)
	})
	if got := sw.Slots[SlotSwitch]; got != 3 {
		t.Errorf("explicit switch cost = %d slots, want 3", got)
	}
	bo := run(func(b *prog.Builder) {
		b.SetYield(prog.YieldBackoff)
		b.Yield(10)
	})
	if got := bo.Slots[SlotSwitch]; got != 1 {
		t.Errorf("backoff cost = %d slots, want 1", got)
	}
}

func TestBlockedFastSwitchCost(t *testing.T) {
	fm := mem.New()
	pr := buildProg(t, "m", func(b *prog.Builder) {
		b.Lw(isa.R2, isa.R1, 0)
		b.Halt()
	})
	filler := buildProg(t, "filler", func(b *prog.Builder) {
		for i := 0; i < 100; i++ {
			b.Add(isa.R2, isa.R3, isa.R4)
		}
		b.Halt()
	})
	p := MustNewProcessor(DefaultConfig(BlockedFast, 2), newFakeMem(40), fm)
	p.BindThread(0, NewThread("m", pr))
	p.BindThread(1, NewThread("filler", filler))
	if _, done := p.RunUntilHalted(2000); !done {
		t.Fatal("did not finish")
	}
	if got := p.Stats.Slots[SlotSwitch]; got != 1 {
		t.Errorf("blocked-fast switch cost = %d, want 1", got)
	}
}

func TestFineGrainedSingleThreadSlow(t *testing.T) {
	// Fine-grained: one instruction per context in the pipe, so a single
	// thread runs at 1/depth throughput — the paper's core criticism.
	fm := mem.New()
	pr := buildProg(t, "chain", func(b *prog.Builder) {
		for i := 0; i < 50; i++ {
			b.Add(isa.R2, isa.R3, isa.R4)
		}
		b.Halt()
	})
	p := MustNewProcessor(DefaultConfig(FineGrained, 4), perfectMem{}, fm)
	p.BindThread(0, NewThread("chain", pr))
	cycles, done := p.RunUntilHalted(10000)
	if !done {
		t.Fatal("did not finish")
	}
	if cycles < 50*7 {
		t.Errorf("fine-grained single thread took %d cycles, want >= %d", cycles, 50*7)
	}
}

func TestInterleavedSingleThreadFullSpeed(t *testing.T) {
	// The paper's key workstation requirement: one thread on the
	// interleaved processor runs as fast as on the single-context one.
	mk := func() *prog.Program {
		return buildProg(t, "chain", func(b *prog.Builder) {
			for i := 0; i < 200; i++ {
				b.Add(isa.R2, isa.R3, isa.R4)
			}
			b.Halt()
		})
	}
	run := func(s Scheme, n int) int64 {
		fm := mem.New()
		p := MustNewProcessor(DefaultConfig(s, n), perfectMem{}, fm)
		p.BindThread(0, NewThread("chain", mk()))
		cycles, done := p.RunUntilHalted(10000)
		if !done {
			t.Fatal("did not finish")
		}
		return cycles
	}
	single := run(Single, 1)
	inter := run(Interleaved, 4)
	if inter != single {
		t.Errorf("interleaved single-thread = %d cycles, single-context = %d; must match", inter, single)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Four identical compute threads on an interleaved processor retire
	// at (nearly) identical rates.
	fm := mem.New()
	p := MustNewProcessor(DefaultConfig(Interleaved, 4), perfectMem{}, fm)
	var ths []*Thread
	for i := 0; i < 4; i++ {
		pr := buildProg(t, "w", func(b *prog.Builder) {
			b.Label("top")
			b.Addi(isa.R2, isa.R2, 1)
			b.Slti(isa.R3, isa.R2, 1000)
			b.Bne(isa.R3, isa.R0, "top")
			b.Halt()
		})
		th := NewThread("w", pr)
		ths = append(ths, th)
		p.BindThread(i, th)
	}
	if _, done := p.RunUntilHalted(100000); !done {
		t.Fatal("did not finish")
	}
	for _, th := range ths[1:] {
		if th.Retired != ths[0].Retired {
			t.Errorf("unfair retirement: %d vs %d", th.Retired, ths[0].Retired)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, Stats) {
		fm := mem.New()
		fake := newFakeMem(25)
		p := MustNewProcessor(DefaultConfig(Interleaved, 4), fake, fm)
		for i := 0; i < 4; i++ {
			p.BindThread(i, NewThread("s", sumProgram(t, 500, uint32(0x100000+64*i))))
		}
		cycles, done := p.RunUntilHalted(1000000)
		if !done {
			t.Fatal("did not finish")
		}
		return cycles, p.Stats
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Error("simulation is not deterministic")
	}
}

func TestSlotConservation(t *testing.T) {
	// Every cycle is accounted to exactly one slot class under every
	// scheme.
	for _, s := range []Scheme{Single, Blocked, BlockedFast, Interleaved, FineGrained} {
		n := 1
		if s != Single {
			n = 4
		}
		fm := mem.New()
		p := MustNewProcessor(DefaultConfig(s, n), newFakeMem(30), fm)
		for i := 0; i < n; i++ {
			p.BindThread(i, NewThread("s", sumProgram(t, 200, uint32(0x100000+64*i))))
		}
		p.Run(5000)
		var total int64
		for _, v := range p.Stats.Slots {
			total += v
		}
		if total != p.Stats.Cycles {
			t.Errorf("%v: slots %d != cycles %d", s, total, p.Stats.Cycles)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     Config
		mutate  func(*Config)
		wantErr string // substring; empty means valid
	}{
		{name: "interleaved/4", cfg: DefaultConfig(Interleaved, 4)},
		{name: "single/2", cfg: DefaultConfig(Single, 2), wantErr: "exactly one context"},
		{name: "zero contexts", cfg: DefaultConfig(Interleaved, 0), wantErr: "at least one context"},
		{name: "mask-width contexts", cfg: DefaultConfig(Interleaved, maxContexts)},
		{name: "contexts beyond the ready mask", cfg: DefaultConfig(Interleaved, maxContexts+1),
			wantErr: "65 contexts exceed the supported maximum of 64"},
		{name: "blocked beyond the ready mask", cfg: DefaultConfig(Blocked, 1000), wantErr: "maximum of 64"},
		{name: "non-power-of-two BTB", cfg: DefaultConfig(Interleaved, 2),
			mutate: func(c *Config) { c.BTBEntries = 100 }, wantErr: "power of two"},
	} {
		if c.mutate != nil {
			c.mutate(&c.cfg)
		}
		err := c.cfg.Validate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
		if _, nerr := NewProcessor(c.cfg, perfectMem{}, mem.New()); (nerr == nil) != (err == nil) {
			t.Errorf("%s: NewProcessor error %v, Validate error %v", c.name, nerr, err)
		}
	}
}

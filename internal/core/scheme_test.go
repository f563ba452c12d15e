package core

// Scheme-specific behavioural tests beyond the cross-check: blocked
// selection discipline, rebinding mid-miss (the OS swap case), backoff
// cause attribution, and the fine-grained scheme's memory behaviour.

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// busyIssueOrder runs two contexts of n independent adds and a halt each
// under scheme, fast-forwarded or stepped, and returns the context of every
// busy issue slot in order, read from the event trace.
func busyIssueOrder(t *testing.T, scheme Scheme, n int, noFF bool) []int {
	t.Helper()
	cfg := DefaultConfig(scheme, 2)
	cfg.NoFastForward = noFF
	p := MustNewProcessor(cfg, perfectMem{}, mem.New())
	col := metrics.NewCollector(metrics.Options{Events: true}, 1)
	p.AttachMetrics(col.Proc(0))
	for i := 0; i < 2; i++ {
		pr := buildProg(t, "w", func(b *prog.Builder) {
			for j := 0; j < n; j++ {
				b.Add(isa.R2, isa.R3, isa.R4)
			}
			b.Halt()
		})
		p.BindThread(i, NewThread("w", pr))
	}
	if _, done := p.RunUntilHalted(10_000); !done {
		t.Fatalf("%v noFF=%v: did not finish", scheme, noFF)
	}
	var order []int
	for _, ev := range col.Result().Events {
		if ev.Kind == metrics.KindIssue && ev.Class == slotNames[SlotBusy] {
			order = append(order, ev.Ctx)
		}
	}
	if len(order) != 2*(n+1) {
		t.Fatalf("%v noFF=%v: %d busy issues, want %d", scheme, noFF, len(order), 2*(n+1))
	}
	return order
}

// TestBlockedRunsToMiss: the blocked scheme must not rotate contexts
// between misses — context 0's instructions run contiguously.
func TestBlockedRunsToMiss(t *testing.T) {
	for _, noFF := range []bool{false, true} {
		order := busyIssueOrder(t, Blocked, 50, noFF)
		// With no misses at all, context 0 must run to completion before
		// context 1 issues anything.
		switches := 0
		for i := 1; i < len(order); i++ {
			if order[i] != order[i-1] {
				switches++
			}
		}
		if switches != 1 {
			t.Errorf("noFF=%v: blocked scheme switched %d times with no misses, want 1 (at halt)", noFF, switches)
		}
	}
}

// TestInterleavedAlternates: with two compute-bound contexts the
// interleaved scheme alternates every cycle.
func TestInterleavedAlternates(t *testing.T) {
	for _, noFF := range []bool{false, true} {
		order := busyIssueOrder(t, Interleaved, 30, noFF)
		same := 0
		for i := 1; i < len(order)-2; i++ { // tail after one halts alternation stops
			if order[i] == order[i-1] {
				same++
			}
		}
		if same > 2 {
			t.Errorf("noFF=%v: interleaved scheme repeated a context %d times while both ran", noFF, same)
		}
	}
}

// TestRebindMidMiss: the OS can swap a thread out while its context waits
// on a fill; the new thread must start cleanly and the old one must be
// resumable later with correct semantics.
func TestRebindMidMiss(t *testing.T) {
	fm := mem.New()
	fake := newFakeMem(200)
	p := MustNewProcessor(DefaultConfig(Interleaved, 2), fake, fm)

	misser := buildProg(t, "m", func(b *prog.Builder) {
		b.Lw(isa.R2, isa.R1, 0) // long miss
		b.Addi(isa.R3, isa.R2, 1)
		b.Halt()
	})
	filler := buildProg(t, "f", func(b *prog.Builder) {
		for j := 0; j < 20; j++ {
			b.Addi(isa.R2, isa.R2, 1)
		}
		b.Halt()
	})

	thM := NewThread("m", misser)
	p.BindThread(0, thM)
	p.Run(10) // the miss is outstanding now

	// OS swaps the waiting thread out for a filler.
	thF := NewThread("f", filler)
	p.BindThread(0, thF)
	if _, done := p.RunUntilHalted(1_000); !done {
		t.Fatal("filler did not finish")
	}
	if thF.IntReg(isa.R2) != 20 {
		t.Errorf("filler R2 = %d", thF.IntReg(isa.R2))
	}

	// Swap the misser back: it replays its load and completes.
	fm.StoreW(0, 77)
	p.BindThread(0, thM)
	if _, done := p.RunUntilHalted(2_000); !done {
		t.Fatal("misser did not finish after rebind")
	}
	if thM.IntReg(isa.R2) != 77 || thM.IntReg(isa.R3) != 78 {
		t.Errorf("misser registers = %d, %d", thM.IntReg(isa.R2), thM.IntReg(isa.R3))
	}
}

// TestBackoffCauseAttribution: idle time during a backoff in sync code is
// charged to synchronization; after a divide, to long instruction stall.
func TestBackoffCauseAttribution(t *testing.T) {
	run := func(sync bool) *Stats {
		fm := mem.New()
		p := MustNewProcessor(DefaultConfig(Interleaved, 2), perfectMem{}, fm)
		pr := buildProg(t, "y", func(b *prog.Builder) {
			b.SetYield(prog.YieldBackoff)
			if sync {
				b.SetRegion(isa.RegionSync)
			}
			b.Yield(50)
			b.SetRegion(isa.RegionNormal)
			b.Halt()
		})
		p.BindThread(0, NewThread("y", pr))
		// No second thread: the backoff's idle window is exposed.
		if _, done := p.RunUntilHalted(1_000); !done {
			t.Fatal("did not finish")
		}
		return &p.Stats
	}
	s := run(true)
	if s.Slots[SlotSync] < 40 {
		t.Errorf("sync backoff idle charged %d sync slots, want ~50", s.Slots[SlotSync])
	}
	s = run(false)
	if s.Slots[SlotStallLong] < 40 {
		t.Errorf("compute backoff idle charged %d long-stall slots, want ~50", s.Slots[SlotStallLong])
	}
}

// TestFineGrainedIgnoresCache: the fine-grained scheme pays the fixed
// memory latency even when the timing memory would hit.
func TestFineGrainedIgnoresCache(t *testing.T) {
	fm := mem.New()
	cfg := DefaultConfig(FineGrained, 2)
	p := MustNewProcessor(cfg, perfectMem{}, fm)
	pr := buildProg(t, "lseq", func(b *prog.Builder) {
		for i := 0; i < 10; i++ {
			b.Lw(isa.R2, isa.R1, int32(4*i))
			b.Add(isa.R3, isa.R2, isa.R2) // dependent: exposes the latency
		}
		b.Halt()
	})
	p.BindThread(0, NewThread("lseq", pr))
	cycles, done := p.RunUntilHalted(10_000)
	if !done {
		t.Fatal("did not finish")
	}
	if cycles < 10*int64(cfg.FineGrainedMemLatency) {
		t.Errorf("fine-grained took %d cycles; must pay ~%d per load",
			cycles, cfg.FineGrainedMemLatency)
	}
}

// TestWAWStall: a long-latency write followed by a short write to the same
// register must not complete out of order (the scoreboard stalls).
func TestWAWStall(t *testing.T) {
	fm := mem.New()
	pr := buildProg(t, "waw", func(b *prog.Builder) {
		a := b.Alloc(16, 8)
		b.InitF(a, 8.0)
		b.InitF(a+8, 2.0)
		b.La(isa.R1, a)
		b.Fld(isa.F1, isa.R1, 0)
		b.Fld(isa.F2, isa.R1, 8)
		b.FDivD(isa.F3, isa.F1, isa.F2) // F3 = 4.0, ready in 61 cycles
		b.FAdd(isa.F3, isa.F1, isa.F2)  // WAW on F3: F3 = 10.0
		b.Fsd(isa.F3, isa.R1, 0)
		b.Halt()
	})
	pr.LoadInit(fm)
	p := MustNewProcessor(DefaultConfig(Single, 1), perfectMem{}, fm)
	p.BindThread(0, NewThread("waw", pr))
	if _, done := p.RunUntilHalted(10_000); !done {
		t.Fatal("did not finish")
	}
	if got := fm.LoadD(uint32(pr.Init[0].Addr)); got != 0x4024000000000000 { // 10.0
		t.Errorf("WAW result bits = %#x, want 10.0", got)
	}
}

// TestJalJr exercises call/return through the link register.
func TestJalJr(t *testing.T) {
	fm := mem.New()
	pr := buildProg(t, "call", func(b *prog.Builder) {
		b.Li(isa.R2, 0)
		b.Jal("fn")
		b.Jal("fn")
		b.Halt()
		b.Label("fn")
		b.Addi(isa.R2, isa.R2, 5)
		b.Jr(isa.R31)
	})
	p := MustNewProcessor(DefaultConfig(Single, 1), perfectMem{}, fm)
	th := NewThread("call", pr)
	p.BindThread(0, th)
	if _, done := p.RunUntilHalted(10_000); !done {
		t.Fatal("did not finish")
	}
	if th.IntReg(isa.R2) != 10 {
		t.Errorf("R2 = %d, want 10 (two calls)", th.IntReg(isa.R2))
	}
}

// TestDevotedCyclesConserved: per-thread attributed cycles sum to the
// cycles the processor actually spent (when all slots have an owner).
func TestDevotedCyclesConserved(t *testing.T) {
	fm := mem.New()
	p := MustNewProcessor(DefaultConfig(Interleaved, 2), newFakeMem(30), fm)
	var ths []*Thread
	for i := 0; i < 2; i++ {
		th := NewThread("s", sumProgram(t, 300, uint32(0x100000+64*i)))
		ths = append(ths, th)
		p.BindThread(i, th)
	}
	if _, done := p.RunUntilHalted(100_000); !done {
		t.Fatal("did not finish")
	}
	var devoted int64
	for _, th := range ths {
		devoted += th.Devoted
	}
	// All cycles belong to someone except the trailing idle after both
	// halt (RunUntilHalted stops at the check granularity).
	if devoted < p.Stats.Cycles-int64(p.Stats.Slots[SlotIdle])-2 || devoted > p.Stats.Cycles {
		t.Errorf("devoted sum = %d, cycles = %d, idle = %d",
			devoted, p.Stats.Cycles, p.Stats.Slots[SlotIdle])
	}
}

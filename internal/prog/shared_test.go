package prog

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/isa"
)

type sharedOpts struct {
	Base uint32
	Mode YieldMode
}

// sharedTestProg links a small program whose bytes depend on o, like a
// suite kernel's depend on its Options.
func sharedTestProg(o sharedOpts) *Program {
	b := NewBuilder("shared-test", o.Base, 0x10_0000, 1<<12)
	b.SetYield(o.Mode)
	slot := b.Alloc(8, 8)
	b.InitW(slot, o.Base)
	b.La(isa.R1, slot)
	b.Label("loop")
	b.Lw(isa.R2, isa.R1, 0)
	b.Yield(5)
	b.Bgtz(isa.R2, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestSharedConcurrentCallersGetOneBuild: goroutines asking for one key at
// once wait for a single build and all receive its pointer.
func TestSharedConcurrentCallersGetOneBuild(t *testing.T) {
	ResetShared()
	defer ResetShared()
	const callers = 8
	var builds atomic.Int32
	start := make(chan struct{})
	got := make([]*Program, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			o := sharedOpts{Base: 0x1000, Mode: YieldBackoff}
			got[i] = Shared("k", o, func(o sharedOpts) *Program {
				builds.Add(1)
				return sharedTestProg(o)
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1", n)
	}
	for i, p := range got {
		if p != got[0] {
			t.Errorf("caller %d got %p, caller 0 got %p", i, p, got[0])
		}
	}
	if b, h, _ := SharedStats(); b != 1 || h != callers-1 {
		t.Errorf("SharedStats = %d builds, %d hits; want 1 and %d", b, h, callers-1)
	}
}

// TestSharedKeyIsNameAndOptions: either half of the key changing is a
// different program; the same pair is the same pointer.
func TestSharedKeyIsNameAndOptions(t *testing.T) {
	ResetShared()
	defer ResetShared()
	get := func(name string, o sharedOpts) *Program {
		return Shared(name, o, sharedTestProg)
	}
	a := get("k", sharedOpts{0x1000, YieldNone})
	if get("k", sharedOpts{0x1000, YieldNone}) != a {
		t.Error("same (name, options) linked twice")
	}
	if get("k", sharedOpts{0x1000, YieldSwitch}) == a || get("k", sharedOpts{0x2000, YieldNone}) == a {
		t.Error("different options served the same program")
	}
	if get("other", sharedOpts{0x1000, YieldNone}) == a {
		t.Error("different name served the same program")
	}
	// A different options type with the same field values is its own key.
	type otherOpts sharedOpts
	if Shared("k", otherOpts{0x1000, YieldNone}, func(o otherOpts) *Program { return sharedTestProg(sharedOpts(o)) }) == a {
		t.Error("different options type served the same program")
	}
	if b, h, _ := SharedStats(); b != 5 || h != 1 {
		t.Errorf("SharedStats = %d builds, %d hits; want 5 and 1", b, h)
	}
}

// TestSharedOverflowDropsEntriesNotResults: past the cap the memo forgets
// programs, which costs a relink and changes nothing else — a program
// handed out earlier stays intact, and its relinked twin has the same
// fingerprint.
func TestSharedOverflowDropsEntriesNotResults(t *testing.T) {
	ResetShared()
	defer ResetShared()
	get := func(i int) *Program {
		o := sharedOpts{Base: 0x1000 * uint32(i+1), Mode: YieldBackoff}
		return Shared("k", o, sharedTestProg)
	}
	first := get(0)
	sum := first.Fingerprint()
	for i := 1; i <= sharedCap; i++ { // sharedCap+1 keys in all
		get(i)
		if _, _, n := SharedStats(); n > sharedCap {
			t.Fatalf("memo holds %d programs, cap is %d", n, sharedCap)
		}
	}
	if _, _, n := SharedStats(); n != 1 {
		t.Errorf("memo holds %d programs after overflowing, want 1 (emptied, then the newest)", n)
	}
	if first.Fingerprint() != sum {
		t.Error("a program handed out before the overflow changed")
	}
	again := get(0)
	if again == first {
		t.Error("dropped entry was still served")
	}
	if again.Fingerprint() != sum {
		t.Error("relinked program differs from the dropped one")
	}
	if b, h, _ := SharedStats(); b != sharedCap+2 || h != 0 {
		t.Errorf("SharedStats = %d builds, %d hits; want %d and 0", b, h, sharedCap+2)
	}
}

// TestSharedBuildPanicReachesEveryCaller: every caller of a pair whose
// build panics panics too; none receives nil.
func TestSharedBuildPanicReachesEveryCaller(t *testing.T) {
	ResetShared()
	defer ResetShared()
	call := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		Shared("bad", sharedOpts{}, func(sharedOpts) *Program { panic("operand misuse") })
		return false
	}
	if !call() || !call() {
		t.Error("a failed shared build returned instead of panicking")
	}
}

// TestFingerprintCoversTheProgram: the hash moves when any part a run can
// observe moves, so an unchanged hash means an unchanged program.
func TestFingerprintCoversTheProgram(t *testing.T) {
	fresh := func() *Program { return sharedTestProg(sharedOpts{0x1000, YieldBackoff}) }
	sum := fresh().Fingerprint()
	if fresh().Fingerprint() != sum {
		t.Fatal("two links of one program hash differently")
	}
	for name, mutate := range map[string]func(p *Program){
		"Base":         func(p *Program) { p.Base += 4 },
		"Insts op":     func(p *Program) { p.Insts[1].Op = isa.NOP },
		"Insts imm":    func(p *Program) { p.Insts[2].Imm++ },
		"Insts target": func(p *Program) { p.Insts[len(p.Insts)-2].Target++ },
		"Insts region": func(p *Program) { p.Insts[0].Region = isa.RegionSync },
		"Insts decode": func(p *Program) { p.Insts[2].TM.Latency++ },
		"Insts dst":    func(p *Program) { p.Insts[2].Dst = isa.R9 },
		"Insts len":    func(p *Program) { p.Insts = p.Insts[:len(p.Insts)-1] },
		"Init value":   func(p *Program) { p.Init[0].Val++ },
		"Init addr":    func(p *Program) { p.Init[0].Addr += 4 },
		"Init width":   func(p *Program) { p.Init[0].Double = true },
		"Labels index": func(p *Program) { p.Labels["loop"]++ },
		"Labels name":  func(p *Program) { p.Labels["extra"] = 0 },
	} {
		p := fresh()
		mutate(p)
		if p.Fingerprint() == sum {
			t.Errorf("changing %s left the fingerprint unchanged", name)
		}
	}
}

package apps

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/prog"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"doduc", "li", "eqntott", "matrix300", "tomcatv",
		"btrix", "cholsky", "cfft2d", "emit", "gmtry", "mxm", "vpenta",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d kernels, want %d", len(reg), len(want))
	}
	for _, n := range want {
		if _, ok := reg[n]; !ok {
			t.Errorf("kernel %q missing", n)
		}
	}
	if _, err := Lookup("doduc"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup of unknown kernel succeeded")
	}
}

// Every kernel must build under every yield mode and execute for a while
// on a real hierarchy without halting, faulting, or starving.
func TestEveryKernelRuns(t *testing.T) {
	for name, k := range Registry() {
		for _, y := range []prog.YieldMode{prog.YieldNone, prog.YieldBackoff, prog.YieldSwitch} {
			p := k.Build(Options{
				CodeBase:     0x0100_0000,
				DataBase:     0x4000_0000,
				Yield:        y,
				AutoTolerate: y != prog.YieldNone,
			})
			if len(p.Insts) == 0 {
				t.Fatalf("%s: empty program", name)
			}
			fm := mem.New()
			p.LoadInit(fm)
			h := cache.MustNewHierarchy(cache.DefaultParams())
			proc := core.MustNewProcessor(core.DefaultConfig(core.Single, 1), h, fm)
			th := core.NewThread(name, p)
			proc.BindThread(0, th)
			proc.Run(30000)
			if th.Halted {
				t.Errorf("%s (%v): kernel halted; kernels must loop forever", name, y)
			}
			if th.Retired < 1000 {
				t.Errorf("%s (%v): retired only %d instructions in 30k cycles", name, y, th.Retired)
			}
		}
	}
}

// The IC-workload members need large live code footprints; the others
// should stay modest.
func TestCodeFootprints(t *testing.T) {
	opt := Options{CodeBase: 0x0100_0000, DataBase: 0x4000_0000}
	big := []string{"doduc", "li", "eqntott", "mxm"}
	for _, n := range big {
		k, _ := Lookup(n)
		p := k.Build(opt)
		if p.CodeBytes() < 12<<10 {
			t.Errorf("%s code = %d bytes; IC members need >= 12 KB", n, p.CodeBytes())
		}
	}
	k, _ := Lookup("vpenta")
	if p := k.Build(opt); p.CodeBytes() > 8<<10 {
		t.Errorf("vpenta code = %d bytes; loop kernels should stay small", p.CodeBytes())
	}
	// Combined IC workload footprint must exceed the 64 KB I-cache.
	total := 0
	for _, n := range big {
		k, _ := Lookup(n)
		total += k.Build(opt).CodeBytes()
	}
	if total < 64<<10 {
		t.Errorf("IC workload code = %d bytes, want > 64 KB to stress the I-cache", total)
	}
}

// Workload-role checks: kernels must land in the stall regime that defines
// their workload membership (DESIGN.md §3).
func TestKernelCharacters(t *testing.T) {
	run := func(name string) (*core.Stats, *cache.Stats) {
		k, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		p := k.Build(Options{CodeBase: 0x0100_0000, DataBase: 0x4000_0000})
		fm := mem.New()
		p.LoadInit(fm)
		h := cache.MustNewHierarchy(cache.DefaultParams())
		proc := core.MustNewProcessor(core.DefaultConfig(core.Single, 1), h, fm)
		proc.BindThread(0, core.NewThread(name, p))
		proc.Run(150000)
		return &proc.Stats, &h.Stats
	}

	// btrix: the TLB must miss heavily.
	_, hs := run("btrix")
	if hs.DataByClass[3] < 500 { // memsys.TLBMiss
		t.Errorf("btrix TLB misses = %d, want heavy TLB pressure", hs.DataByClass[3])
	}

	// emit: long instruction stalls (FP divides) must dominate memory.
	es, _ := run("emit")
	if es.Slots[core.SlotStallLong] < es.Slots[core.SlotDMem] {
		t.Errorf("emit: long stalls %d < dmem %d; divides should dominate",
			es.Slots[core.SlotStallLong], es.Slots[core.SlotDMem])
	}

	// cfft2d: data misses should mostly be L2 hits (DC workload regime).
	_, fs := run("cfft2d")
	if fs.DataByClass[1] == 0 { // memsys.HitL2
		t.Error("cfft2d produced no L2-hit misses")
	}

	// mxm: cache-resident compute; busy fraction should be high.
	ms, _ := run("mxm")
	if ms.BusyFraction() < 0.5 {
		t.Errorf("mxm busy fraction = %.2f, want >= 0.5", ms.BusyFraction())
	}
}

// TestRegistryIsTheCallersCopy: Lookup reads a table built once per
// process, so a caller scribbling on the map Registry returned must not
// reach it.
func TestRegistryIsTheCallersCopy(t *testing.T) {
	reg := Registry()
	delete(reg, "doduc")
	reg["li"] = Kernel{Name: "impostor"}
	if k, err := Lookup("doduc"); err != nil || k.Name != "doduc" {
		t.Errorf("Lookup(doduc) after the caller deleted it from its copy: %v, %v", k.Name, err)
	}
	if k, err := Lookup("li"); err != nil || k.Name != "li" {
		t.Errorf("Lookup(li) after the caller overwrote it in its copy: %v, %v", k.Name, err)
	}
	if len(Registry()) != 12 {
		t.Errorf("registry has %d kernels after a caller edited its copy", len(Registry()))
	}
}

// TestProgramSharesSuiteKernelsOnly: a suite kernel's Program is linked
// once per Options and its Build is still a fresh, private link; a kernel
// that does not declare itself shared — anything built outside the
// registry, where a name says nothing about the Build behind it — is
// relinked on every Program call.
func TestProgramSharesSuiteKernelsOnly(t *testing.T) {
	prog.ResetShared()
	defer prog.ResetShared()
	o := Options{CodeBase: 0x0100_0000, DataBase: 0x4000_0000, Yield: prog.YieldBackoff, AutoTolerate: true}
	k, err := Lookup("emit")
	if err != nil {
		t.Fatal(err)
	}
	p := k.Program(o)
	if k.Program(o) != p {
		t.Error("suite kernel linked twice for one Options")
	}
	other := o
	other.Yield = prog.YieldSwitch
	if k.Program(other) == p {
		t.Error("different Options served the same program")
	}
	if q := k.Build(o); q == p || q.Fingerprint() != p.Fingerprint() {
		t.Error("Build must link a fresh program identical to the shared one")
	}
	if b, h, _ := prog.SharedStats(); b != 2 || h != 1 {
		t.Errorf("SharedStats = %d builds, %d hits; want 2 and 1", b, h)
	}

	adhoc := Emit() // same name, not declared shared
	if adhoc.Shared {
		t.Fatal("a kernel constructor declared itself shared")
	}
	if a, b := adhoc.Program(o), adhoc.Program(o); a == b || a == p {
		t.Error("an undeclared kernel's Program was served from the memo")
	}
	if b, h, _ := prog.SharedStats(); b != 2 || h != 1 {
		t.Errorf("an undeclared kernel went through the memo: %d builds, %d hits", b, h)
	}
}

package splash

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mp"
	"repro/internal/prog"
)

func buildOpts(threads int) Options {
	return Options{
		CodeBase:     0x0100_0000,
		DataBase:     0x5000_0000,
		Yield:        prog.YieldBackoff,
		AutoTolerate: true,
		NumThreads:   threads,
		Steps:        1,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"mp3d", "barnes", "water", "ocean", "locus", "pthor", "cholesky"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d apps, want %d", len(reg), len(want))
	}
	for _, n := range want {
		if _, ok := reg[n]; !ok {
			t.Errorf("app %q missing", n)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown app lookup succeeded")
	}
}

// TestRegistryIsTheCallersCopy and TestProgramSharesSuiteAppsOnly mirror
// the apps package's: Lookup reads a table built once, Registry hands out
// copies, and only a registry app's Program goes through the memo.
func TestRegistryIsTheCallersCopy(t *testing.T) {
	reg := Registry()
	delete(reg, "ocean")
	reg["water"] = App{Name: "impostor"}
	for _, name := range []string{"ocean", "water"} {
		if a, err := Lookup(name); err != nil || a.Name != name {
			t.Errorf("Lookup(%s) after a caller edited its copy: %v, %v", name, a.Name, err)
		}
	}
	if len(Registry()) != 7 {
		t.Errorf("registry has %d apps after a caller edited its copy", len(Registry()))
	}
}

func TestProgramSharesSuiteAppsOnly(t *testing.T) {
	prog.ResetShared()
	defer prog.ResetShared()
	app, err := Lookup("ocean")
	if err != nil {
		t.Fatal(err)
	}
	p := app.Program(buildOpts(4))
	if app.Program(buildOpts(4)) != p {
		t.Error("suite app linked twice for one Options")
	}
	if app.Program(buildOpts(8)) == p {
		t.Error("different Options served the same program")
	}
	if q := app.Build(buildOpts(4)); q == p || q.Fingerprint() != p.Fingerprint() {
		t.Error("Build must link a fresh program identical to the shared one")
	}
	adhoc := Ocean() // same name, not declared shared
	if a, b := adhoc.Program(buildOpts(4)), adhoc.Program(buildOpts(4)); adhoc.Shared || a == b || a == p {
		t.Error("an undeclared app's Program was served from the memo")
	}
	if b, h, _ := prog.SharedStats(); b != 2 || h != 1 {
		t.Errorf("SharedStats = %d builds, %d hits; want 2 and 1", b, h)
	}
}

// Every app must build and run to completion on a small multiprocessor
// under every scheme, with sync time recorded.
func TestEveryAppCompletes(t *testing.T) {
	for name, app := range Registry() {
		for _, tc := range []struct {
			scheme core.Scheme
			ctx    int
		}{
			{core.Single, 1},
			{core.Blocked, 2},
			{core.Interleaved, 2},
		} {
			cfg := mp.DefaultConfig(tc.scheme, tc.ctx)
			cfg.Processors = 4
			cfg.LimitCycles = 20_000_000
			threads := cfg.Processors * tc.ctx
			p := app.Build(buildOpts(threads))
			res, err := mp.Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("%s %v/%d did not complete", name, tc.scheme, tc.ctx)
			}
			if res.Stats.Retired == 0 {
				t.Fatalf("%s: nothing retired", name)
			}
			sync := res.Stats.Slots[core.SlotSync] + res.Stats.Slots[core.SlotSyncBusy]
			if sync == 0 {
				t.Errorf("%s (%v): no synchronization time recorded", name, tc.scheme)
			}
		}
	}
}

// Apps must work at one thread too (the SP uniprocessor workload).
func TestSingleThreadBuilds(t *testing.T) {
	for name, app := range Registry() {
		cfg := mp.DefaultConfig(core.Single, 1)
		cfg.Processors = 1
		cfg.LimitCycles = 20_000_000
		p := app.Build(buildOpts(1))
		res, err := mp.Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%s single-thread did not complete", name)
		}
	}
}

// Character checks tied to the paper's descriptions.
func TestAppCharacters(t *testing.T) {
	run := func(name string, procs, ctx int) *mp.Result {
		app, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mp.DefaultConfig(core.Interleaved, ctx)
		if ctx == 1 {
			cfg = mp.DefaultConfig(core.Single, 1)
		}
		cfg.Processors = procs
		cfg.LimitCycles = 40_000_000
		res, err := mp.Run(app.Build(buildOpts(procs*ctx)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%s did not complete", name)
		}
		return res
	}

	// barnes and water: long instruction stalls (divides) must be a major
	// stall component on a single context per node (the paper's "large
	// amounts of instruction latency, mainly due to floating-point
	// divides").
	for _, n := range []string{"barnes", "water"} {
		res := run(n, 4, 1)
		long := res.Stats.Slots[core.SlotStallLong]
		short := res.Stats.Slots[core.SlotStallShort]
		if long*2 < short {
			t.Errorf("%s: long stalls %d vs short %d; divides should be a major component",
				n, long, short)
		}
	}

	// pthor: synchronization-bound.
	res := run("pthor", 4, 1)
	sync := res.Stats.Slots[core.SlotSync] + res.Stats.Slots[core.SlotSyncBusy]
	if frac := float64(sync) / float64(res.Stats.Cycles); frac < 0.10 {
		t.Errorf("pthor sync fraction = %.2f, want >= 0.10", frac)
	}

	// cholesky: adding contexts must NOT speed it up appreciably (the
	// paper's Table 10 shows ~1.0 for all configurations).
	base := run("cholesky", 4, 1)
	multi := run("cholesky", 4, 4)
	speedup := float64(base.Cycles) / float64(multi.Cycles)
	if speedup > 1.3 {
		t.Errorf("cholesky speedup with 4 contexts = %.2f, want ~1.0 (limited parallelism)", speedup)
	}

	// mp3d: communication-bound — remote traffic should dwarf local.
	res = run("mp3d", 4, 1)
	if res.Stats.Slots[core.SlotDMem] == 0 {
		t.Error("mp3d recorded no memory stall time")
	}
}

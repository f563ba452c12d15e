package experiments

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/splash"
)

// Shared programs (prog.Shared): a grid links each (kernel, Options) once
// per process and every cell, on every worker, runs the same *prog.Program.
// These tests hold the simulators to the immutability that relies on, pin
// the build count, and pin what a warm cell still allocates.

var allSchemes = []core.Scheme{core.Blocked, core.BlockedFast, core.Interleaved, core.FineGrained}

// linked is a program with the fingerprint it had when it was linked.
type linked struct {
	p   *prog.Program
	sum uint64
}

func checkIntact(t *testing.T, label string, ps []linked) {
	t.Helper()
	if len(ps) == 0 {
		t.Errorf("%s: the cell linked no program through the recording kernels", label)
	}
	for _, l := range ps {
		if got := l.p.Fingerprint(); got != l.sum {
			t.Errorf("%s: program %s was written to during the run (fingerprint %#x at link, %#x after)",
				label, l.p.Name, l.sum, got)
		}
	}
}

// TestCellsDoNotWriteTheirPrograms runs one cell per scheme, workstation
// and multiprocessor, on programs fingerprinted as they were linked: the
// run must leave Insts, Init, Labels and Base as it found them.
func TestCellsDoNotWriteTheirPrograms(t *testing.T) {
	ctx := context.Background()

	uni := QuickUniConfig()
	uni.Workloads = []string{"R0", "SP"} // FP yields, integer code, and the sync-heavy SPLASH builds
	uni.Schemes = allSchemes
	uni.ContextCounts = []int{2}
	uni.SliceCycles = 4_000
	ug, err := workstationGrid.bind(uni)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range ug.cells {
		var ps []linked
		own, err := ResolveWorkload(sp.subject)
		if err != nil {
			t.Fatal(err)
		}
		kernels := make([]apps.Kernel, len(own))
		for j, k := range own {
			kernels[j] = apps.Kernel{Name: k.Name, Build: func(o apps.Options) *prog.Program {
				p := k.Build(o)
				ps = append(ps, linked{p, p.Fingerprint()})
				return p
			}}
		}
		label := "ws/" + sp.subject + "/" + sp.scheme.String()
		if _, err := uniAttempt(ctx, uni, kernels, ug.attemptOf(i, 1)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkIntact(t, label, ps)
	}

	mpc := QuickMPConfig()
	mpc.Apps = []string{"water", "pthor"} // barriers and FP; locks and queues
	mpc.Processors = 2
	mpc.Schemes = allSchemes
	mpc.ContextCounts = []int{2}
	mg, err := multiprocessorGrid.bind(mpc)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range mg.cells {
		var ps []linked
		app, err := splash.Lookup(sp.subject)
		if err != nil {
			t.Fatal(err)
		}
		recording := splash.App{Name: app.Name, Racy: app.Racy, Build: func(o splash.Options) *prog.Program {
			p := app.Build(o)
			ps = append(ps, linked{p, p.Fingerprint()})
			return p
		}}
		label := "mp/" + sp.subject + "/" + sp.scheme.String()
		if _, err := mpAttempt(ctx, mpc, recording, mg.attemptOf(i, 1)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkIntact(t, label, ps)
	}
}

// table7Grid is the benchmark's ws-table7 shape: three mixes × (baseline +
// two schemes × two context counts) = 15 cells over 3 × 4 kernels, each
// linked for the three yield modes.
func table7Grid(parallelism int) UniConfig {
	cfg := QuickUniConfig()
	cfg.Workloads = []string{"IC", "DC", "FP"}
	cfg.SliceCycles = 4_000
	cfg.Parallelism = parallelism
	return cfg
}

const table7GridPrograms = 3 * 4 * 3

// TestGridLinksEachProgramOnce: at -j 8 the 15-cell grid performs exactly
// one build per distinct (kernel, Options) however its workers race for
// them, a second grid performs none, and the output is byte-identical at
// -j 1 and with the memo bypassed (every cell linking its own programs
// through Build). scripts/check.sh runs this under the race detector.
func TestGridLinksEachProgramOnce(t *testing.T) {
	prog.ResetShared()
	defer prog.ResetShared()
	render := func(r *UniResult) string {
		blob, err := json.Marshal(r.Cells)
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable7(r) + string(blob)
	}

	j8, err := RunUniprocessor(table7Grid(8))
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(len(j8.Cells))
	if b, h, held := prog.SharedStats(); b != table7GridPrograms || b+h != 4*cells || held != table7GridPrograms {
		t.Errorf("-j 8 grid: %d builds, %d hits, %d programs held; want %d builds over %d requests, all held",
			b, h, held, table7GridPrograms, 4*cells)
	}

	j1, err := RunUniprocessor(table7Grid(1))
	if err != nil {
		t.Fatal(err)
	}
	if b, h, _ := prog.SharedStats(); b != table7GridPrograms || b+h != 8*cells {
		t.Errorf("second grid: %d builds, %d hits; want no new build and %d requests in all", b, h, 8*cells)
	}
	if render(j8) != render(j1) {
		t.Error("grid output differs between -j 8 and -j 1")
	}

	// The memo bypassed: the same cells on kernels that are not declared
	// shared, so Program is Build.
	cfg := table7Grid(1)
	g, err := workstationGrid.bind(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*UniCellRecord, len(g.cells))
	for i, sp := range g.cells {
		shared, err := ResolveWorkload(sp.subject)
		if err != nil {
			t.Fatal(err)
		}
		own := make([]apps.Kernel, len(shared))
		for j, k := range shared {
			own[j] = apps.Kernel{Name: k.Name, Build: k.Build}
		}
		if recs[i], err = uniAttempt(context.Background(), cfg, own, g.attemptOf(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if b, h, _ := prog.SharedStats(); b != table7GridPrograms || b+h != 8*cells {
		t.Errorf("bypassed grid went through the memo: %d builds, %d hits", b, h)
	}
	bypassed, err := AssembleUni(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if render(bypassed) != render(j1) {
		t.Error("grid output differs between shared programs and per-cell builds")
	}
}

// allocDelta runs f and reports the bytes it allocated and whether any
// allocation was made under a prog.Builder method. The heap profile samples
// every allocation for the duration, and a stack's cumulative count moving
// across f is an allocation f made.
func allocDelta(t *testing.T, f func()) (bytes uint64, builderFrames []string) {
	t.Helper()
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()

	profile := func() map[[32]uintptr]int64 {
		// The profile is complete up to the last finished GC cycle but one.
		runtime.GC()
		runtime.GC()
		n, _ := runtime.MemProfile(nil, true)
		recs := make([]runtime.MemProfileRecord, n+64)
		n, ok := runtime.MemProfile(recs, true)
		if !ok {
			t.Fatal("heap profile grew while it was read")
		}
		m := make(map[[32]uintptr]int64, n)
		for _, r := range recs[:n] {
			m[r.Stack0] += r.AllocObjects
		}
		return m
	}
	before := profile()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	for stack, n := range profile() {
		if n == before[stack] {
			continue
		}
		depth := 0
		for depth < len(stack) && stack[depth] != 0 {
			depth++
		}
		frames := runtime.CallersFrames(stack[:depth])
		for {
			fr, more := frames.Next()
			if strings.Contains(fr.Function, "prog.(*Builder)") {
				builderFrames = append(builderFrames, fr.Function)
				break
			}
			if !more {
				break
			}
		}
	}
	return m1.TotalAlloc - m0.TotalAlloc, builderFrames
}

// TestWarmCellAllocation pins what a cell allocates once its programs are
// linked: the machine it simulates (caches, BTB, touched memory pages,
// threads) and nothing of the programs. The largest cells of each grid —
// the IC mix, whose four programs are a megabyte, and the widest
// multiprocessor cell — are the ones a relink would show in most.
func TestWarmCellAllocation(t *testing.T) {
	ctx := context.Background()
	prog.ResetShared()
	defer prog.ResetShared()

	uni := table7Grid(1)
	ug, err := workstationGrid.bind(uni)
	if err != nil {
		t.Fatal(err)
	}
	mpc := QuickMPConfig()
	mpc.Apps = []string{"ocean"}
	mg, err := multiprocessorGrid.bind(mpc)
	if err != nil {
		t.Fatal(err)
	}
	uspecs, mspecs := ug.cells, mg.cells
	for _, c := range []struct {
		name  string
		limit uint64
		run   func() bool
	}{
		{"RunUniCell IC interleaved/4", 1 << 20, func() bool {
			rec, err := RunUniCell(ctx, uni, 4)
			return err == nil && !rec.Failed
		}},
		{"RunMPCell ocean interleaved/4", 1 << 20, func() bool {
			rec, err := RunMPCell(ctx, mpc, len(mspecs)-1)
			return err == nil && !rec.Failed
		}},
	} {
		run := func() {
			if !c.run() {
				t.Errorf("%s failed", c.name)
			}
		}
		// Cold, the cell links its programs: the control for the detector.
		if _, frames := allocDelta(t, run); len(frames) == 0 {
			t.Errorf("%s: cold cell shows no allocation under prog.Builder", c.name)
		}
		builds, _, _ := prog.SharedStats()
		bytes, frames := allocDelta(t, run)
		if after, _, _ := prog.SharedStats(); after != builds {
			t.Errorf("%s: warm cell linked %d programs", c.name, after-builds)
		}
		if len(frames) != 0 {
			t.Errorf("%s: warm cell allocated under %v", c.name, frames)
		}
		if bytes > c.limit {
			t.Errorf("%s: warm cell allocated %d bytes, limit %d", c.name, bytes, c.limit)
		}
		t.Logf("%s: %d bytes warm", c.name, bytes)
	}
	if sp := uspecs[4]; sp.subject != "IC" || sp.scheme != core.Interleaved || sp.contexts != 4 {
		t.Errorf("cell 4 of the grid is %s %v/%d", sp.subject, sp.scheme, sp.contexts)
	}
	if sp := mspecs[len(mspecs)-1]; sp.scheme != core.Interleaved || sp.contexts != 4 {
		t.Errorf("last multiprocessor cell is %v/%d", sp.scheme, sp.contexts)
	}
}

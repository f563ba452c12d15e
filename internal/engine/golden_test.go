package engine_test

// Golden byte-identity harness for the engine refactor: a grid of runs
// across all three drivers (core guarded runs, workstation slices, mp
// lockstep) × schemes × fast-forward ON/OFF × chaos × observability ×
// workstation checkpoint/resume, digested to strings and pinned in
// testdata/golden.json. The file was captured from the pre-refactor
// drivers (commit 824d5ed, with each driver's hand-rolled block loop);
// the ported drivers must reproduce every digest byte-for-byte.
//
// Regenerate with UPDATE_ENGINE_GOLDEN=1 go test ./internal/engine
// -run TestEngineGolden — but an intentional regeneration is a
// simulation-behavior change and needs the same scrutiny as a timing
// change in the core.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mp"
	"repro/internal/prog"
	"repro/internal/workstation"
)

const goldenPath = "testdata/golden.json"

// counterProg mirrors the mp package's counter test program: every
// thread increments a shared counter under a spin lock, then meets at a
// barrier and halts. Lock contention exercises the coherence fabric,
// fast-forward skip regions, and chaos perturbation.
func counterProg(reps int, yield prog.YieldMode) *prog.Program {
	b := prog.NewBuilder("counter", 0x1000, 0x4000_0000, 1<<20)
	b.SetYield(yield)
	lock := b.AllocLock()
	counter := b.Alloc(64, 64)
	bar := b.AllocBarrier()

	b.La(isa.R6, bar)
	b.Li(isa.R7, 0)
	b.La(isa.R16, lock)
	b.La(isa.R17, counter)
	b.Li(isa.R20, uint32(reps))
	b.Label("loop")
	b.LockAcquire(isa.R16, isa.R2)
	b.Lw(isa.R9, isa.R17, 0)
	b.Addi(isa.R9, isa.R9, 1)
	b.Sw(isa.R9, isa.R17, 0)
	b.LockRelease(isa.R16)
	b.Addi(isa.R20, isa.R20, -1)
	b.Bgtz(isa.R20, "loop")
	b.Barrier(isa.R6, isa.R5, isa.R7, isa.R2, isa.R3)
	b.Halt()
	return b.MustBuild()
}

// walkProg is the uniprocessor workload: a store/load walk over a 16 KB
// region with enough arithmetic between misses to give every scheme
// distinct timing.
func walkProg() *prog.Program {
	b := prog.NewBuilder("walk", 0x1000, 0x4000_0000, 1<<20)
	buf := b.Alloc(16*1024, 64)
	b.La(isa.R16, buf)
	b.Li(isa.R20, 2048) // words to touch
	b.Li(isa.R9, 1)
	b.Label("loop")
	b.Sw(isa.R9, isa.R16, 0)
	b.Lw(isa.R10, isa.R16, 0)
	b.Add(isa.R9, isa.R9, isa.R10)
	b.Addi(isa.R16, isa.R16, 8)
	b.Addi(isa.R20, isa.R20, -1)
	b.Bgtz(isa.R20, "loop")
	b.Halt()
	return b.MustBuild()
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func statsDigest(s *core.Stats) string {
	return fmt.Sprintf("cycles=%d slots=%v", s.Cycles, s.Slots)
}

// metricsDigest hashes the full JSONL export — series layout, sample
// cycles, counter values, and the event trace.
func metricsDigest(m *metrics.CellMetrics) string {
	if m == nil {
		return "nil"
	}
	var sb strings.Builder
	if err := metrics.WriteJSONL(&sb, m, "golden"); err != nil {
		return "err:" + err.Error()
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

func mpDigest(res *mp.Result) string {
	return fmt.Sprintf("cycles=%d completed=%v mem=%#x arch=%#x %s metrics=%s",
		res.Cycles, res.Completed, res.MemHash, res.ArchHash,
		statsDigest(&res.Stats), metricsDigest(res.Metrics))
}

func wsDigest(res *workstation.Result) string {
	var apps []string
	for _, a := range res.Apps {
		apps = append(apps, fmt.Sprintf("%s:%d/%d", a.Name, a.Retired, a.Devoted))
	}
	return fmt.Sprintf("tput=%s fair=%s %s apps=[%s] metrics=%s",
		f64(res.Throughput), f64(res.FairThroughput),
		statsDigest(&res.Stats), strings.Join(apps, " "), metricsDigest(res.Metrics))
}

func collect(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}

	// --- multiprocessor grid: schemes × fast-forward × chaos ---------
	mpProg := counterProg(8, prog.YieldBackoff)
	type sc struct {
		scheme core.Scheme
		ctxs   int
	}
	mpSchemes := []sc{
		{core.Single, 1}, {core.Blocked, 2}, {core.BlockedFast, 2},
		{core.Interleaved, 4}, {core.FineGrained, 4},
	}
	for _, s := range mpSchemes {
		for _, noFF := range []bool{false, true} {
			for _, chaos := range []int64{0, 7} {
				cfg := mp.DefaultConfig(s.scheme, s.ctxs)
				cfg.Processors = 2
				cfg.LimitCycles = 2_000_000
				cfg.Guard = guard.Options{ChaosSeed: chaos}
				ccfg := core.DefaultConfig(s.scheme, s.ctxs)
				ccfg.NoFastForward = noFF
				cfg.Core = &ccfg
				res, err := mp.Run(mpProg, cfg)
				if err != nil {
					t.Fatalf("mp %v noFF=%v chaos=%d: %v", s.scheme, noFF, chaos, err)
				}
				key := fmt.Sprintf("mp/%v/ctx%d/noFF=%v/chaos=%d", s.scheme, s.ctxs, noFF, chaos)
				got[key] = mpDigest(res)
			}
		}
	}

	// Instrumented mp cells: counter sampling + event trace, both run
	// modes — the cell series sample at block-rounded cadences and must
	// not depend on fast-forward.
	for _, noFF := range []bool{false, true} {
		cfg := mp.DefaultConfig(core.Interleaved, 4)
		cfg.Processors = 2
		cfg.LimitCycles = 2_000_000
		cfg.Obs = metrics.Options{SampleEvery: 500, Events: true}
		ccfg := core.DefaultConfig(core.Interleaved, 4)
		ccfg.NoFastForward = noFF
		cfg.Core = &ccfg
		res, err := mp.Run(mpProg, cfg)
		if err != nil {
			t.Fatalf("mp obs noFF=%v: %v", noFF, err)
		}
		got[fmt.Sprintf("mp/obs/noFF=%v", noFF)] = mpDigest(res)
	}

	// Guarded mp cell: invariant checks + tight watchdog cadence on a
	// healthy run must not change results (digest equals the plain cell's
	// digest modulo key).
	{
		cfg := mp.DefaultConfig(core.Interleaved, 4)
		cfg.Processors = 2
		cfg.LimitCycles = 2_000_000
		cfg.Guard = guard.Options{CheckInvariants: true, CheckEvery: 512}
		res, err := mp.Run(mpProg, cfg)
		if err != nil {
			t.Fatalf("mp guarded: %v", err)
		}
		got["mp/guarded/Interleaved/ctx4"] = mpDigest(res)
	}

	// mp scratch run of the Blocked 2-context counter program, pinned.
	{
		cfg := mp.DefaultConfig(core.Blocked, 2)
		cfg.Processors = 2
		cfg.LimitCycles = 2_000_000
		res, err := mp.Run(counterProg(40, prog.YieldBackoff), cfg)
		if err != nil {
			t.Fatalf("mp scratch: %v", err)
		}
		got["mp/scratch/Blocked/ctx2"] = mpDigest(res)
	}

	// --- workstation grid: schemes × fast-forward × chaos ------------
	kernels := func() []apps.Kernel {
		var ks []apps.Kernel
		for _, n := range []string{"cfft2d", "gmtry", "tomcatv", "vpenta"} {
			k, err := apps.Lookup(n)
			if err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
		return ks
	}()
	wsCfg := func(s core.Scheme, ctxs int, noFF bool, chaos int64) workstation.Config {
		cfg := workstation.DefaultConfig(s, ctxs)
		cfg.OS.SliceCycles = 10_000
		cfg.Guard = guard.Options{ChaosSeed: chaos}
		if noFF {
			ccfg := core.DefaultConfig(s, ctxs)
			ccfg.NoFastForward = true
			cfg.Core = &ccfg
		}
		return cfg
	}
	for _, s := range []sc{{core.Single, 1}, {core.Blocked, 2}, {core.Interleaved, 4}} {
		for _, noFF := range []bool{false, true} {
			for _, chaos := range []int64{0, 31} {
				res, err := workstation.Run(kernels, wsCfg(s.scheme, s.ctxs, noFF, chaos))
				if err != nil {
					t.Fatalf("ws %v noFF=%v chaos=%d: %v", s.scheme, noFF, chaos, err)
				}
				key := fmt.Sprintf("ws/%v/ctx%d/noFF=%v/chaos=%d", s.scheme, s.ctxs, noFF, chaos)
				got[key] = wsDigest(res)
			}
		}
	}

	// Instrumented workstation cell, with the watchdog armed so the
	// watchdog/arms counter series pins the guard-boundary schedule.
	{
		cfg := wsCfg(core.Interleaved, 4, false, 0)
		cfg.Guard.WatchdogWindow = 50_000
		cfg.Obs = metrics.Options{SampleEvery: 500, Events: true}
		res, err := workstation.Run(kernels, cfg)
		if err != nil {
			t.Fatalf("ws obs: %v", err)
		}
		got["ws/obs/Interleaved/ctx4"] = wsDigest(res)
	}

	// Guarded workstation cell: invariant checks on a healthy run.
	{
		cfg := wsCfg(core.Blocked, 2, false, 0)
		cfg.Guard.CheckInvariants = true
		cfg.Guard.CheckEvery = 512
		res, err := workstation.Run(kernels, cfg)
		if err != nil {
			t.Fatalf("ws guarded: %v", err)
		}
		got["ws/guarded/Blocked/ctx2"] = wsDigest(res)
	}

	// Workstation warm-up checkpoint → fork (the sensitivity-sweep
	// mechanism): forked must equal scratch, and both are pinned.
	{
		cfg := wsCfg(core.Blocked, 2, false, 0)
		ckpt, err := workstation.CheckpointWarmupCtx(nil, kernels, cfg, "golden")
		if err != nil {
			t.Fatalf("ws checkpoint: %v", err)
		}
		res, err := workstation.ResumeCtx(nil, kernels, cfg, ckpt, "golden")
		if err != nil {
			t.Fatalf("ws resume: %v", err)
		}
		got["ws/resume/Blocked/ctx2"] = wsDigest(res)
		scratch, err := workstation.Run(kernels, cfg)
		if err != nil {
			t.Fatalf("ws scratch: %v", err)
		}
		if d := wsDigest(scratch); d != got["ws/resume/Blocked/ctx2"] {
			t.Errorf("ws fork-vs-scratch diverge:\nfork    %s\nscratch %s",
				got["ws/resume/Blocked/ctx2"], d)
		}
	}

	// --- core guarded runs: schemes × fast-forward, plain and guarded -
	coreRun := func(s core.Scheme, ctxs int, noFF bool, opts guard.Options) string {
		params := cache.DefaultParams()
		h := cache.MustNewHierarchy(params)
		fm := mem.New()
		p := walkProg()
		p.LoadInit(fm)
		ccfg := core.DefaultConfig(s, ctxs)
		ccfg.NoFastForward = noFF
		proc := core.MustNewProcessor(ccfg, h, fm)
		for i := 0; i < ctxs; i++ {
			th := core.NewThread(fmt.Sprintf("t%d", i), p)
			th.SetIntReg(isa.R4, uint32(i))
			proc.BindThread(i, th)
		}
		ran, halted, err := proc.RunGuardedCtx(nil, 10_000_000, opts)
		if err != nil {
			t.Fatalf("core %v noFF=%v: %v", s, noFF, err)
		}
		return fmt.Sprintf("ran=%d halted=%v mem=%#x machine=%#x %s",
			ran, halted, fm.Hash(), proc.MachineHash(), statsDigest(&proc.Stats))
	}
	for _, s := range []sc{
		{core.Single, 1}, {core.Blocked, 2}, {core.BlockedFast, 2},
		{core.Interleaved, 4}, {core.FineGrained, 4},
	} {
		for _, noFF := range []bool{false, true} {
			key := fmt.Sprintf("core/%v/ctx%d/noFF=%v", s.scheme, s.ctxs, noFF)
			got[key] = coreRun(s.scheme, s.ctxs, noFF, guard.Options{})
		}
	}
	got["core/guarded/Interleaved/ctx4"] = coreRun(core.Interleaved, 4, false,
		guard.Options{CheckInvariants: true, CheckEvery: 128, WatchdogWindow: 100_000})

	return got
}

func TestEngineGolden(t *testing.T) {
	got := collect(t)

	if os.Getenv("UPDATE_ENGINE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with UPDATE_ENGINE_GOLDEN=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s:\n got  %s\n want %s", k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("digest %s missing from golden file (regenerate)", k)
		}
	}
}

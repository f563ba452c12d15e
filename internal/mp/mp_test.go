package mp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
)

// counterProgram: every thread increments a shared counter reps times
// under a spin lock, then meets at a barrier and halts. The final counter
// value proves mutual exclusion end-to-end through the coherence fabric.
func counterProgram(reps int, yield prog.YieldMode) *prog.Program {
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

const counterAddr = 0x4000_0040 // first 64-byte slot after the lock

func TestMutualExclusionAcrossNodes(t *testing.T) {
	for _, tc := range []struct {
		scheme core.Scheme
		ctx    int
	}{
		{core.Single, 1},
		{core.Blocked, 2},
		{core.Interleaved, 4},
	} {
		cfg := DefaultConfig(tc.scheme, tc.ctx)
		cfg.Processors = 4
		cfg.LimitCycles = 5_000_000
		p := counterProgram(25, prog.YieldBackoff)
		res, err := Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%v/%d did not complete", tc.scheme, tc.ctx)
		}
		want := uint32(4 * tc.ctx * 25)
		if got := res.Mem.LoadW(counterAddr); got != want {
			t.Errorf("%v/%d: counter = %d, want %d (mutual exclusion violated)",
				tc.scheme, tc.ctx, got, want)
		}
		if res.Threads != 4*tc.ctx {
			t.Fatalf("threads = %d", res.Threads)
		}
	}
}

func TestCounterValueExact(t *testing.T) {
	// White-box variant: run manually so we can read functional memory.
	p := counterProgram(25, prog.YieldBackoff)
	cfg := DefaultConfig(core.Interleaved, 4)
	cfg.Processors = 4
	cfg.LimitCycles = 5_000_000
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	got := res.Mem.LoadW(counterAddr)
	want := uint32(16 * 25)
	if got != want {
		t.Errorf("counter = %d, want %d (mutual exclusion violated)", got, want)
	}
}

func TestBarrierRankSequence(t *testing.T) {
	// Each thread writes its step number into a private slot every
	// step; after a barrier no thread may be more than one step ahead.
	// Completion itself proves no thread escaped the barrier early (a
	// broken barrier deadlocks or completes with a garbled counter).
	p := counterProgram(10, prog.YieldBackoff)
	cfg := DefaultConfig(core.Blocked, 2)
	cfg.Processors = 2
	cfg.LimitCycles = 5_000_000
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if got := res.Mem.LoadW(counterAddr); got != 40 {
		t.Errorf("counter = %d, want 40", got)
	}
}

func TestExecutionTimeRecorded(t *testing.T) {
	p := counterProgram(5, prog.YieldBackoff)
	cfg := DefaultConfig(core.Single, 1)
	cfg.Processors = 2
	cfg.LimitCycles = 1_000_000
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Cycles <= 0 {
		t.Fatalf("res = %+v", res)
	}
	if len(res.PerProc) != 2 {
		t.Errorf("per-proc stats = %d", len(res.PerProc))
	}
	var slots int64
	for _, s := range res.Stats.Slots {
		slots += s
	}
	if slots != res.Stats.Cycles {
		t.Error("aggregate slot conservation violated")
	}
}

func TestLimitEnforced(t *testing.T) {
	p := counterProgram(100000, prog.YieldBackoff)
	cfg := DefaultConfig(core.Single, 1)
	cfg.Processors = 2
	cfg.LimitCycles = 2_000
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("impossibly fast completion")
	}
}

func TestConfigErrors(t *testing.T) {
	p := counterProgram(1, prog.YieldNone)
	bad := DefaultConfig(core.Single, 1)
	bad.Processors = 0
	if _, err := Run(p, bad); err == nil {
		t.Error("zero processors accepted")
	}
	bad = DefaultConfig(core.Single, 1)
	bad.Contexts = 0
	if _, err := Run(p, bad); err == nil {
		t.Error("zero contexts accepted")
	}
}

// A Core override configures the pipeline, not the machine: the driver
// binds Contexts threads per processor and the program was compiled for
// Scheme's yield instruction, so an override that disagrees on either is
// refused (it used to index past the override's contexts in BindThread, or
// run SWITCH-compiled code on an interleaved pipeline).
func TestCoreOverrideMustMatchMachine(t *testing.T) {
	p := counterProgram(1, prog.YieldBackoff)
	for _, tc := range []struct {
		name     string
		scheme   core.Scheme
		contexts int
		ok       bool
	}{
		{"same scheme and contexts", core.Interleaved, 4, true},
		{"fewer contexts", core.Interleaved, 2, false},
		{"more contexts", core.Interleaved, 8, false},
		{"another scheme", core.Blocked, 4, false},
	} {
		cfg := DefaultConfig(core.Interleaved, 4)
		cfg.Processors = 2
		ccfg := core.DefaultConfig(tc.scheme, tc.contexts)
		ccfg.BTBEntries = 0 // what an override is for
		cfg.Core = &ccfg
		_, err := Run(p, cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "core override")) {
			t.Errorf("%s: accepted, or refused for another reason: %v", tc.name, err)
		}
	}
}

// Odd context counts: work splits leave remainders, but every thread must
// still synchronize and halt.
func TestOddContextCounts(t *testing.T) {
	p := counterProgram(10, prog.YieldBackoff)
	cfg := DefaultConfig(core.Interleaved, 3)
	cfg.Processors = 3
	cfg.LimitCycles = 5_000_000
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Threads != 9 {
		t.Fatalf("completed=%v threads=%d", res.Completed, res.Threads)
	}
	if got := res.Mem.LoadW(counterAddr); got != 90 {
		t.Errorf("counter = %d, want 90", got)
	}
}

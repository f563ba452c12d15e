package mp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
)

// Golden lockstep-equivalence tests for the multiprocessor: the
// fast-forwarding driver (all processors jump together to the earliest
// next event) must produce byte-identical results to cycle-by-cycle
// lockstep for every scheme, with the watchdog armed and under chaos
// perturbation. Directory transactions are ordered by (cycle, processor),
// so any divergence here means a skip crossed a coherence event.

// sweepProgram is the memory-stall-heavy SPMD kernel: each thread strides
// through its own 64 KiB slice of a shared array (every load a directory
// miss at this cache size), accumulates a checksum, and stores it.
func sweepProgram(passes int) *prog.Program {
	b := prog.NewBuilder("sweep", 0x1000, 0x4000_0000, 1<<22)
	b.SetYield(prog.YieldBackoff)
	arr := b.Alloc(16*64<<10, 64)
	res := b.Alloc(256, 64)
	b.La(isa.R1, arr)
	b.Sll(isa.R11, isa.R4, 16) // tid * 64 KiB
	b.Add(isa.R1, isa.R1, isa.R11)
	b.Li(isa.R2, uint32(passes))
	b.Li(isa.R7, 0)
	b.Label("pass")
	b.Move(isa.R3, isa.R1)
	b.Li(isa.R5, (64<<10)/64)
	b.Label("loop")
	b.Lw(isa.R6, isa.R3, 0)
	b.Add(isa.R7, isa.R7, isa.R6)
	b.Sw(isa.R7, isa.R3, 32) // dirty the line: coherence ownership traffic
	b.Addi(isa.R3, isa.R3, 64)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bgtz(isa.R5, "loop")
	b.Addi(isa.R2, isa.R2, -1)
	b.Bgtz(isa.R2, "pass")
	b.Sll(isa.R11, isa.R4, 2)
	b.La(isa.R10, res)
	b.Add(isa.R10, isa.R10, isa.R11)
	b.Sw(isa.R7, isa.R10, 0)
	b.Halt()
	return b.MustBuild()
}

// switchEvent is one SwitchWatch callback.
type switchEvent struct {
	proc, ctx int
	now       int64
}

// runPair executes cfg twice — fast-forwarding (default) and with
// NoFastForward forced through the core override — and returns both. The
// lockstep driver promises SwitchWatch callbacks in (cycle, processor)
// order whichever way it gets through a cycle, so the two runs must also
// make the same callbacks in the same order.
func runPair(t *testing.T, p *prog.Program, cfg Config) (ff, off *Result) {
	t.Helper()
	var ffSwitches, offSwitches []switchEvent
	record := func(into *[]switchEvent) func(*core.Processor, int, int64) {
		return func(p *core.Processor, ctx int, now int64) {
			*into = append(*into, switchEvent{p.ID, ctx, now})
		}
	}
	cfg.SwitchWatch = record(&ffSwitches)
	ff, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("fast-forward run: %v", err)
	}
	ccfg := core.DefaultConfig(cfg.Scheme, cfg.Contexts)
	ccfg.NoFastForward = true
	offCfg := cfg
	offCfg.Core = &ccfg
	offCfg.SwitchWatch = record(&offSwitches)
	off, err = Run(p, offCfg)
	if err != nil {
		t.Fatalf("stepped run: %v", err)
	}
	if !reflect.DeepEqual(ffSwitches, offSwitches) {
		t.Errorf("SwitchWatch saw %d callbacks fast-forwarded, %d stepped, or the same number in another order",
			len(ffSwitches), len(offSwitches))
	}
	if cfg.Scheme != core.Single && cfg.Scheme != core.FineGrained && len(ffSwitches) == 0 {
		t.Errorf("SwitchWatch never fired: the comparison is empty")
	}
	return ff, off
}

func compareResults(t *testing.T, label string, ff, off *Result) {
	t.Helper()
	if ff.Cycles != off.Cycles || ff.Completed != off.Completed {
		t.Errorf("%s: cycles/completed = %d/%v fast-forwarded, %d/%v stepped",
			label, ff.Cycles, ff.Completed, off.Cycles, off.Completed)
	}
	if ff.Stats != off.Stats {
		t.Errorf("%s: aggregate stats diverge\n fast-forwarded: %+v\n stepped:        %+v",
			label, ff.Stats, off.Stats)
	}
	if !reflect.DeepEqual(ff.PerProc, off.PerProc) {
		t.Errorf("%s: per-processor stats diverge", label)
	}
	if ff.MemHash != off.MemHash {
		t.Errorf("%s: memory hash %#x fast-forwarded, %#x stepped", label, ff.MemHash, off.MemHash)
	}
	if ff.ArchHash != off.ArchHash {
		t.Errorf("%s: arch hash %#x fast-forwarded, %#x stepped", label, ff.ArchHash, off.ArchHash)
	}
}

func TestFastForwardEquivalenceMP(t *testing.T) {
	for _, tc := range []struct {
		scheme core.Scheme
		ctx    int
	}{
		{core.Single, 1},
		{core.Blocked, 2},
		{core.BlockedFast, 2},
		{core.Interleaved, 4},
		{core.FineGrained, 2},
	} {
		for _, chaos := range []int64{0, 4242} {
			label := fmt.Sprintf("%v/%dctx/chaos=%d", tc.scheme, tc.ctx, chaos)
			cfg := DefaultConfig(tc.scheme, tc.ctx)
			cfg.Processors = 4
			cfg.LimitCycles = 20_000_000
			cfg.Guard.ChaosSeed = chaos

			ff, off := runPair(t, sweepProgram(2), cfg)
			if !ff.Completed {
				t.Fatalf("%s: sweep did not complete", label)
			}
			compareResults(t, label+"/sweep", ff, off)

			yield := prog.YieldBackoff
			if tc.scheme == core.Blocked || tc.scheme == core.BlockedFast {
				yield = prog.YieldSwitch
			}
			ff, off = runPair(t, counterProgram(10, yield), cfg)
			if !ff.Completed {
				t.Fatalf("%s: counter did not complete", label)
			}
			compareResults(t, label+"/counter", ff, off)
		}
	}
}

// TestFastForwardWatchdogEquivalence: the watchdog observes progress at
// the same cadence either way, so a deadlock must trip it with an
// identical report (same trip cycle, same message) under fast-forward.
func TestFastForwardWatchdogEquivalence(t *testing.T) {
	p := deadlockProgram()
	cfg := DefaultConfig(core.Interleaved, 2)
	cfg.Processors = 2
	cfg.LimitCycles = 10_000_000

	_, ffErr := Run(p, cfg)
	ccfg := core.DefaultConfig(cfg.Scheme, cfg.Contexts)
	ccfg.NoFastForward = true
	offCfg := cfg
	offCfg.Core = &ccfg
	_, offErr := Run(p, offCfg)

	if ffErr == nil || offErr == nil {
		t.Fatalf("deadlock not caught: ff=%v stepped=%v", ffErr, offErr)
	}
	if ffErr.Error() != offErr.Error() {
		t.Errorf("watchdog reports differ:\n fast-forwarded: %v\n stepped:        %v", ffErr, offErr)
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// The workstation's I-cache counts its fetches, and the fast-forward
// engine skips a stalled monopolist's re-fetches of a resident line as a
// count (fastforward.go, memsys.CountedInstFetch), and Run issues busy
// cycles in place between the regions it skips. These tests hold both to
// the stepped machine over a real cache.Hierarchy, on two kernels: one that
// is nothing but such stalls (a serial divide chain) and one that is nearly
// nothing but in-place issue (busyProg). Each goes through everything that
// can happen to a region or an issue run: a Run boundary in the middle of
// it, a sample point inside it, the I-lines displaced under it between two
// Run calls, and chaos armed throughout, whose stream position is part of
// the checkpoint.

// divideChainProg is two dependent 61-cycle divides, a store, a load and a
// multiply per iteration, per thread on a line of its own (R4 is the thread
// id): nearly every slot is an interlock or a wait for the one divider.
func divideChainProg(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("divide-chain", 0x1000, 0x10_0000, 1<<16)
	vals := b.Alloc(8*64, 64)
	b.InitF(vals, 1e300)
	b.InitF(vals+8, 1.0000001)
	b.La(isa.R1, vals)
	b.Fld(isa.F1, isa.R1, 0)
	b.Fld(isa.F2, isa.R1, 8)
	b.Sll(isa.R11, isa.R4, 6)
	b.Add(isa.R1, isa.R1, isa.R11)
	b.Li(isa.R2, 24)
	b.Label("loop")
	b.FDivD(isa.F1, isa.F1, isa.F2)
	b.FDivD(isa.F1, isa.F1, isa.F2)
	b.Fsd(isa.F1, isa.R1, 16)
	b.Fld(isa.F3, isa.R1, 16)
	b.FMul(isa.F1, isa.F3, isa.F2)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bgtz(isa.R2, "loop")
	b.Fsd(isa.F1, isa.R1, 24)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// busyProg is the busy-bound kernel: per iteration eight independent ALU
// ops, two loads and a store of words the thread touched before (hits after
// the first pass), and a branch over a flag that flips every iteration.
// Taken, the branch installs its BTB entry; not taken, it evicts it; so the
// BTB mispredicts it every time and each iteration opens a redirect region
// between runs of issue.
func busyProg(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("busy", 0x1000, 0x10_0000, 1<<16)
	vals := b.Alloc(8*64, 64)
	b.La(isa.R1, vals)
	b.Sll(isa.R11, isa.R4, 6)
	b.Add(isa.R1, isa.R1, isa.R11)
	b.Li(isa.R2, 150)
	b.Label("loop")
	for r := isa.R5; r <= isa.R10; r++ {
		b.Addi(r, r, int32(r))
	}
	b.Lw(isa.R12, isa.R1, 0)
	b.Xor(isa.R13, isa.R13, isa.R2)
	b.Lw(isa.R14, isa.R1, 4)
	b.Xori(isa.R3, isa.R3, 1)
	b.Bgtz(isa.R3, "skip")
	b.Add(isa.R15, isa.R12, isa.R14)
	b.Label("skip")
	b.Sw(isa.R5, isa.R1, 8)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bgtz(isa.R2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// countedMachine is a uniMachine (snapshot_machine_test.go) on a kernel
// with chaos armed, optionally superscalar and observed, and with the
// scheduler's random source for SchedulerInterference.
type countedMachine struct {
	*uniMachine
	col   *metrics.Collector
	osRng *rand.Rand
}

func buildCountedMachine(t *testing.T, kernel func(testing.TB) *prog.Program, scheme Scheme, nctx, width int, noFF bool, sample int64) *countedMachine {
	t.Helper()
	m := &countedMachine{
		uniMachine: buildMachine(t, kernel(t), scheme, nctx, noFF, 20261003),
		osRng:      rand.New(rand.NewSource(24)),
	}
	m.proc.Cfg.IssueWidth = width
	if sample > 0 {
		m.col = metrics.NewCollector(metrics.Options{SampleEvery: sample, Events: true}, 1)
		m.proc.AttachMetrics(m.col.Proc(0))
		m.h.AttachMetrics(m.col.Proc(0))
	}
	return m
}

// sealed is the machine as a checkpoint container. An observed processor
// does not checkpoint; its clock and accounting are compared beside this.
func (m *countedMachine) sealed() []byte {
	return snapshot.Seal("counted-fetch-test", "", func(c snapshot.Codec) {
		for _, th := range m.threads {
			th.State(c)
		}
		if !m.proc.Observed() {
			m.proc.State(c)
		}
		m.h.State(c)
		m.fm.State(c)
	})
}

// countedTally is what a scenario's fast-forwarded machine went through.
type countedTally struct {
	regions    int // Run calls that began inside a counted region
	cut        int // ... which the call's end cut short
	straddled  int // ... which held a sample point
	issuing    int // Run calls that began (so the one before ended) on a cycle issued in place
	displaced  int // cycles that missed the I-cache right after the scheduler displaced it
	underStall int // ... where a counted region stood before the displacement
	underIssue int // ... where the cycle would have issued in place
}

// inPlace reports whether advance settles p's current cycle by fetching
// and then issuing or charging the slot itself (advancePath's fetched
// paths that hit).
func inPlace(p *Processor) bool {
	path := advancePath(p)
	return path == "fetched/issue" || path == "fetched/stall-slot"
}

func runCountedScenario(t *testing.T, label string, kernel func(testing.TB) *prog.Program, scheme Scheme, nctx, width int, sample int64) countedTally {
	t.Helper()
	ff := buildCountedMachine(t, kernel, scheme, nctx, width, false, sample)
	off := buildCountedMachine(t, kernel, scheme, nctx, width, true, sample)
	both := []*countedMachine{ff, off}
	var tl countedTally

	compare := func(when string, deep bool) {
		t.Helper()
		if ff.proc.Now() != off.proc.Now() || ff.proc.Stats != off.proc.Stats {
			t.Fatalf("%s @%d %s: core stats diverge\n fast-forwarded: %+v\n stepped:        %+v",
				label, off.proc.Now(), when, ff.proc.Stats, off.proc.Stats)
		}
		if ff.h.Stats != off.h.Stats {
			t.Fatalf("%s @%d %s: cache stats diverge\n fast-forwarded: %+v\n stepped:        %+v",
				label, off.proc.Now(), when, ff.h.Stats, off.h.Stats)
		}
		if !deep {
			return
		}
		if a, b := ff.proc.MachineHash(), off.proc.MachineHash(); a != b {
			t.Fatalf("%s @%d %s: machine hash %#x fast-forwarded, %#x stepped", label, off.proc.Now(), when, a, b)
		}
		if !bytes.Equal(ff.sealed(), off.sealed()) {
			t.Fatalf("%s @%d %s: sealed checkpoints differ", label, off.proc.Now(), when)
		}
	}

	const chunk = 37 // against 61-cycle divides: most Run calls end mid-stall
	for k := 0; !off.proc.AllHalted(); k++ {
		if k > 4000 {
			t.Fatalf("%s: not halted after %d cycles", label, off.proc.Now())
		}
		now := ff.proc.Now()
		if k%8 == 7 {
			// A scheduler invocation heavy enough to displace every I-line:
			// whatever fetches next must miss, stalled instruction or not.
			_, _, _, stalled := ff.proc.advance(false, oneCycle)
			issuing := inPlace(ff.proc)
			for _, m := range both {
				m.h.SchedulerInterference(8*m.h.L1I.Sets(), 0, 0, m.osRng)
			}
			misses := ff.h.Stats.InstMisses
			for _, m := range both {
				m.proc.Run(1)
			}
			missed := ff.h.Stats.InstMisses == misses+1
			if stalled && !missed {
				t.Fatalf("%s @%d: the stalled instruction's line was displaced and the next cycle did not miss", label, now)
			}
			if missed {
				if ff.proc.ifetchUntil <= now || ff.proc.forceNext < 0 {
					t.Fatalf("%s @%d: I-miss left ifetchUntil %d, forceNext %d", label, now, ff.proc.ifetchUntil, ff.proc.forceNext)
				}
				tl.displaced++
				if stalled {
					tl.underStall++
				}
				if issuing {
					tl.underIssue++
				}
			}
			compare("after a displacement", true)
			now = ff.proc.Now()
		}
		if _, _, until, fetches := ff.proc.advance(false, oneCycle); fetches {
			tl.regions++
			end := min(until, now+chunk)
			if end < until {
				tl.cut++
			}
			if sample > 0 && (end-1)/sample != (now-1)/sample {
				tl.straddled++
			}
		}
		if inPlace(ff.proc) {
			tl.issuing++
		}
		for _, m := range both {
			m.proc.Run(chunk)
		}
		compare(fmt.Sprintf("after Run call %d", k), k%16 == 0)
	}
	compare("at the end", true)
	if sample > 0 {
		a, err := json.Marshal(ff.col.Result())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(off.col.Result())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: sampled series and events differ (cache/inst-fetches among them)", label)
		}
	}
	for _, m := range both {
		if err := m.proc.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	return tl
}

// TestCountedFetchFastForwardEquivalence: fast-forward on ≡ NoFastForward
// over the counting I-cache, in core.Stats, cache.Stats (so InstFetches),
// MachineHash, sealed checkpoint bytes and — sampled every 16 cycles — the
// whole exported series, for the monopolizing schemes (whose stalls are
// counted regions), the interleaved one (whose stall slots are counted one
// by one) and both issue widths, on the divide chain and on the busy
// kernel. Every 37-cycle Run call holds sample points at 16, so on the busy
// kernel they land inside runs of in-place issue, as the calls' ends and the
// displacements do (the busy rows count those at single issue, the only
// width that issues in place).
func TestCountedFetchFastForwardEquivalence(t *testing.T) {
	for _, kernel := range []struct {
		name string
		prog func(testing.TB) *prog.Program
	}{{"divide-chain", divideChainProg}, {"busy", busyProg}} {
		for _, cell := range []struct {
			scheme Scheme
			nctx   int
		}{{Single, 1}, {Blocked, 4}, {Interleaved, 4}} {
			for _, width := range []int{1, 2} {
				for _, sample := range []int64{0, 16} {
					label := fmt.Sprintf("%s/%v/%d/width=%d/sample=%d", kernel.name, cell.scheme, cell.nctx, width, sample)
					tl := runCountedScenario(t, label, kernel.prog, cell.scheme, cell.nctx, width, sample)
					checkCountedTally(t, label, kernel.name, cell.scheme, width, sample, tl)
				}
			}
		}
	}
}

// checkCountedTally fails a scenario that did not reach what its row is
// there for.
func checkCountedTally(t *testing.T, label, kernel string, scheme Scheme, width int, sample int64, tl countedTally) {
	t.Helper()
	if tl.displaced == 0 {
		t.Errorf("%s: no cycle missed the I-cache after a displacement", label)
	}
	if kernel == "busy" {
		if width == 1 && (tl.issuing == 0 || tl.underIssue == 0) {
			t.Errorf("%s: no Run call ended, or no displacement landed, inside in-place issue (%+v)", label, tl)
		}
	} else if scheme != Interleaved {
		switch {
		case tl.cut == 0:
			t.Errorf("%s: no Run call cut a counted region (%+v)", label, tl)
		case tl.underStall == 0:
			t.Errorf("%s: no displacement landed under a counted region (%+v)", label, tl)
		case sample > 0 && tl.straddled == 0:
			t.Errorf("%s: no counted region held a sample point (%+v)", label, tl)
		}
	}
	t.Logf("%-45s %+v", label, tl)
}

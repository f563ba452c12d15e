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
// count (fastforward.go, memsys.CountedInstFetch). These tests hold that to
// the stepped machine on the kernel that is nothing but such stalls — a
// serial divide chain over a real cache.Hierarchy — through each thing that
// can happen to a region: a Run boundary in the middle of it, a sample
// point inside it, the line displaced under it between two Run calls, and
// chaos armed throughout, whose stream position is part of the checkpoint.

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

// countedMachine is a uniMachine (snapshot_machine_test.go) on the divide
// chain with chaos armed, optionally superscalar and observed, and with the
// scheduler's random source for SchedulerInterference.
type countedMachine struct {
	*uniMachine
	col   *metrics.Collector
	osRng *rand.Rand
}

func buildCountedMachine(t *testing.T, scheme Scheme, nctx, width int, noFF bool, sample int64) *countedMachine {
	t.Helper()
	m := &countedMachine{
		uniMachine: buildMachine(t, divideChainProg(t), scheme, nctx, noFF, 20261003),
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
	displaced  int // cycles that missed the I-cache right after the scheduler displaced it
	underStall int // ... where a counted region stood before the displacement
}

func runCountedScenario(t *testing.T, label string, scheme Scheme, nctx, width int, sample int64) countedTally {
	t.Helper()
	ff := buildCountedMachine(t, scheme, nctx, width, false, sample)
	off := buildCountedMachine(t, scheme, nctx, width, true, sample)
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
			_, _, _, stalled := ff.proc.advance(false)
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
			}
			compare("after a displacement", true)
			now = ff.proc.Now()
		}
		if _, _, until, fetches := ff.proc.advance(false); fetches {
			tl.regions++
			end := min(until, now+chunk)
			if end < until {
				tl.cut++
			}
			if sample > 0 && (end-1)/sample != (now-1)/sample {
				tl.straddled++
			}
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
// by one) and both issue widths.
func TestCountedFetchFastForwardEquivalence(t *testing.T) {
	for _, cell := range []struct {
		scheme Scheme
		nctx   int
	}{{Single, 1}, {Blocked, 4}, {Interleaved, 4}} {
		for _, width := range []int{1, 2} {
			for _, sample := range []int64{0, 16} {
				label := fmt.Sprintf("%v/%d/width=%d/sample=%d", cell.scheme, cell.nctx, width, sample)
				tl := runCountedScenario(t, label, cell.scheme, cell.nctx, width, sample)
				if tl.displaced == 0 {
					t.Errorf("%s: no cycle missed the I-cache after a displacement", label)
				}
				if cell.scheme != Interleaved {
					switch {
					case tl.cut == 0:
						t.Errorf("%s: no Run call cut a counted region (%+v)", label, tl)
					case tl.underStall == 0:
						t.Errorf("%s: no displacement landed under a counted region (%+v)", label, tl)
					case sample > 0 && tl.straddled == 0:
						t.Errorf("%s: no counted region held a sample point (%+v)", label, tl)
					}
				}
				t.Logf("%-32s %+v", label, tl)
			}
		}
	}
}

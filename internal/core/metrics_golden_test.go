package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// Golden property of the observability layer: a fast-forwarded run and a
// cycle-by-cycle run of the same cell produce byte-identical sampled
// series and event traces, and attaching metrics must not perturb the
// simulation itself.

func runObservedStallCell(t *testing.T, scheme Scheme, nctx int, noFF bool, chaosSeed int64) ([]byte, ffOutcome) {
	t.Helper()
	params := cache.DefaultParams()
	if chaosSeed != 0 {
		params.Chaos = guard.Options{ChaosSeed: chaosSeed}.NewChaos()
	}
	h := cache.MustNewHierarchy(params)
	fm := mem.New()
	pr := stallProg(t)
	pr.LoadInit(fm)
	cfg := DefaultConfig(scheme, nctx)
	cfg.NoFastForward = noFF
	p := MustNewProcessor(cfg, h, fm)
	col := metrics.NewCollector(metrics.Options{SampleEvery: 512, Events: true}, 1)
	p.AttachMetrics(col.Proc(0))
	h.AttachMetrics(col.Proc(0))
	var threads []*Thread
	for i := 0; i < nctx; i++ {
		th := NewThread(fmt.Sprintf("t%d", i), pr)
		th.SetIntReg(isa.R4, uint32(i))
		p.BindThread(i, th)
		threads = append(threads, th)
	}
	cycles, halted := p.RunUntilHalted(10_000_000)
	if !halted {
		t.Fatalf("%v/%d noFF=%v: did not halt", scheme, nctx, noFF)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("%v/%d noFF=%v: %v", scheme, nctx, noFF, err)
	}
	blob, err := json.Marshal(col.Result())
	if err != nil {
		t.Fatal(err)
	}
	out := ffOutcome{cycles: cycles, halted: halted, stats: p.Stats, memHash: fm.Hash(), cacheStats: h.Stats}
	out.archHash = out.memHash
	for _, th := range threads {
		out.archHash = th.HashArchState(out.archHash)
	}
	return blob, out
}

func TestMetricsGoldenFastForwardUni(t *testing.T) {
	for _, scheme := range []Scheme{Blocked, Interleaved} {
		for _, chaos := range []int64{0, 99} {
			label := fmt.Sprintf("%v/chaos=%d", scheme, chaos)
			ffBlob, ff := runObservedStallCell(t, scheme, 4, false, chaos)
			offBlob, off := runObservedStallCell(t, scheme, 4, true, chaos)
			compareOutcomes(t, label, ff, off)
			if !bytes.Equal(ffBlob, offBlob) {
				t.Errorf("%s: metrics diverge between fast-forwarded and stepped runs\n ff:  %.400s\n off: %.400s",
					label, ffBlob, offBlob)
			}
			var m metrics.CellMetrics
			if err := json.Unmarshal(ffBlob, &m); err != nil {
				t.Fatal(err)
			}
			if len(m.Procs) != 1 || len(m.Procs[0].Samples) == 0 || len(m.Events) == 0 {
				t.Errorf("%s: empty metrics: %d series, %d events", label, len(m.Procs), len(m.Events))
			}
		}
	}
}

// An issue event names the instruction that issued, not where its thread
// goes next: straight-line code, a taken branch (the skipped instruction
// never issues) and a hitting load report their own addresses, in order,
// stepped and fast-forwarded alike.
func TestIssueEventPCs(t *testing.T) {
	pr := buildProg(t, "pcs", func(b *prog.Builder) {
		b.Addi(isa.R1, isa.R0, 64)      // 0
		b.Beq(isa.R0, isa.R0, "target") // 1: taken
		b.Addi(isa.R2, isa.R0, 1)       // 2: skipped
		b.Label("target")
		b.Lw(isa.R3, isa.R1, 0) // 3: hits
		b.Halt()                // 4
	})
	var want []uint32
	for _, idx := range []int{0, 1, 3, 4} {
		want = append(want, pr.PCAddr(idx))
	}
	for _, noFF := range []bool{false, true} {
		cfg := DefaultConfig(Single, 1)
		cfg.NoFastForward = noFF
		p := MustNewProcessor(cfg, perfectMem{}, mem.New())
		col := metrics.NewCollector(metrics.Options{Events: true}, 1)
		p.AttachMetrics(col.Proc(0))
		p.BindThread(0, NewThread("pcs", pr))
		if _, done := p.RunUntilHalted(1000); !done {
			t.Fatalf("noFF=%v: did not halt", noFF)
		}
		var got []uint32
		for _, ev := range col.Result().Events {
			if ev.Kind == metrics.KindIssue {
				got = append(got, ev.PC)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("noFF=%v: issue events at PCs %#x, want %#x", noFF, got, want)
		}
	}
}

// Attaching a (disabled-sampling, disabled-events would be nil) metrics
// collector must leave the simulation results bit-identical to an
// uninstrumented run: the registry only reads existing counters.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	_, observed := runObservedStallCell(t, Interleaved, 4, false, 7)
	plain := runStallCell(t, Interleaved, 4, false, 7, 10_000_000)
	compareOutcomes(t, "observed-vs-plain", observed, plain)
}

// The charge-span events and issue events of one processor must tile its
// cycles exactly: expanding every span and adding the per-cycle issues
// reproduces TotalSlots.
func TestMetricsEventsTileAllSlots(t *testing.T) {
	blob, out := runObservedStallCell(t, Blocked, 2, false, 0)
	var m metrics.CellMetrics
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m.DroppedEvents > 0 {
		t.Skipf("event cap hit (%d dropped); tiling not checkable", m.DroppedEvents)
	}
	var slots int64
	for _, ev := range m.Events {
		switch ev.Kind {
		case metrics.KindCharge:
			slots += ev.Span
		case metrics.KindIssue:
			slots++
		}
	}
	if total := out.stats.TotalSlots(); slots != total {
		t.Errorf("events cover %d slots, stats account %d", slots, total)
	}
}

// Per-context slot counters must sum to the processor-wide class counters
// for every class that is always attributed to a context (busy slots are;
// idle slots may have ctx -1).
func TestMetricsCtxSlotsConsistent(t *testing.T) {
	blob, out := runObservedStallCell(t, Interleaved, 4, false, 0)
	var m metrics.CellMetrics
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	s := m.Procs[0]
	last := s.Samples[len(s.Samples)-1].Values
	byName := map[string]int64{}
	for i, n := range s.Names {
		byName[n] = last[i]
	}
	var ctxBusy int64
	for k := 0; k < 4; k++ {
		ctxBusy += byName[fmt.Sprintf("ctx%d/busy", k)]
	}
	if busy := byName["slots/busy"]; ctxBusy > busy || busy > out.stats.Slots[SlotBusy] {
		t.Errorf("ctx busy %d, class busy %d, final stats busy %d", ctxBusy, busy, out.stats.Slots[SlotBusy])
	}
	if byName["cycles"] == 0 || byName["cache/data-accesses"] == 0 {
		t.Errorf("expected non-zero cycles and cache counters, got %v", byName)
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

// These tests pin the fast-forward engine's contract: for every scheme,
// a run with stall fast-forward enabled (the default) must be
// indistinguishable — same cycle count, same Stats, same slot breakdown,
// byte-identical memory and architectural state, same cache statistics —
// from the same run stepped one cycle at a time (Cfg.NoFastForward).

// stallProg builds a deliberately stall-heavy kernel: two strided sweeps
// over a 128 KiB per-thread region (L1 misses on the first pass, TLB
// pressure across threads), an integer divide per pass (35-cycle
// non-pipelined stall), and a per-thread checksum store. R4 carries the
// thread id, like the MP convention.
func stallProg(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("ff-stall", 0x1000, 0x10_0000, 1<<22)
	arr := b.Alloc(4*128<<10, 64)
	res := b.Alloc(64, 64)
	b.La(isa.R1, arr)
	b.Sll(isa.R11, isa.R4, 17) // tid * 128 KiB
	b.Add(isa.R1, isa.R1, isa.R11)
	b.Li(isa.R2, 2) // passes
	b.Li(isa.R9, 7) // divisor
	b.Li(isa.R7, 0) // checksum
	b.Label("pass")
	b.Move(isa.R3, isa.R1)
	b.Li(isa.R5, (128<<10)/64) // 64-byte strides per pass
	b.Label("loop")
	b.Lw(isa.R6, isa.R3, 0)
	b.Add(isa.R7, isa.R7, isa.R6)
	b.Addi(isa.R3, isa.R3, 64)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bgtz(isa.R5, "loop")
	b.Div(isa.R8, isa.R7, isa.R9)
	b.Add(isa.R7, isa.R7, isa.R8)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bgtz(isa.R2, "pass")
	b.Sll(isa.R11, isa.R4, 2)
	b.La(isa.R10, res)
	b.Add(isa.R10, isa.R10, isa.R11)
	b.Sw(isa.R7, isa.R10, 0)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type ffOutcome struct {
	cycles     int64
	halted     bool
	stats      Stats
	memHash    uint64
	archHash   uint64
	cacheStats cache.Stats
}

// runStallCell executes stallProg on a real cache hierarchy and returns
// everything the equivalence check compares.
func runStallCell(t *testing.T, scheme Scheme, nctx int, noFF bool, chaosSeed int64, limit int64) ffOutcome {
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
	var threads []*Thread
	for i := 0; i < nctx; i++ {
		th := NewThread(fmt.Sprintf("t%d", i), pr)
		th.SetIntReg(isa.R4, uint32(i))
		p.BindThread(i, th)
		threads = append(threads, th)
	}
	cycles, halted := p.RunUntilHalted(limit)
	out := ffOutcome{
		cycles:     cycles,
		halted:     halted,
		stats:      p.Stats,
		memHash:    fm.Hash(),
		cacheStats: h.Stats,
	}
	out.archHash = out.memHash
	for _, th := range threads {
		out.archHash = th.HashArchState(out.archHash)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("%v/%d noFF=%v: %v", scheme, nctx, noFF, err)
	}
	return out
}

func compareOutcomes(t *testing.T, label string, ff, off ffOutcome) {
	t.Helper()
	if ff.cycles != off.cycles || ff.halted != off.halted {
		t.Errorf("%s: cycles/halted = %d/%v fast-forwarded, %d/%v stepped",
			label, ff.cycles, ff.halted, off.cycles, off.halted)
	}
	if ff.stats != off.stats {
		t.Errorf("%s: stats diverge\n fast-forwarded: %+v\n stepped:        %+v", label, ff.stats, off.stats)
	}
	if ff.memHash != off.memHash {
		t.Errorf("%s: memory hash %#x fast-forwarded, %#x stepped", label, ff.memHash, off.memHash)
	}
	if ff.archHash != off.archHash {
		t.Errorf("%s: arch hash %#x fast-forwarded, %#x stepped", label, ff.archHash, off.archHash)
	}
	if ff.cacheStats != off.cacheStats {
		t.Errorf("%s: cache stats diverge\n fast-forwarded: %+v\n stepped:        %+v",
			label, ff.cacheStats, off.cacheStats)
	}
}

// TestFastForwardEquivalenceUni asserts FF ON == FF OFF for every scheme
// and context count on the workstation hierarchy, with and without chaos
// perturbation.
func TestFastForwardEquivalenceUni(t *testing.T) {
	const limit = 10_000_000
	for _, scheme := range []Scheme{Single, Blocked, BlockedFast, Interleaved, FineGrained} {
		counts := []int{1, 4}
		if scheme == Single {
			counts = []int{1}
		}
		for _, nctx := range counts {
			for _, chaos := range []int64{0, 12345} {
				label := fmt.Sprintf("%v/%dctx/chaos=%d", scheme, nctx, chaos)
				ff := runStallCell(t, scheme, nctx, false, chaos, limit)
				off := runStallCell(t, scheme, nctx, true, chaos, limit)
				if !ff.halted {
					t.Fatalf("%s: did not halt within %d cycles", label, limit)
				}
				compareOutcomes(t, label, ff, off)
			}
		}
	}
}

// pushTimingMem wraps a memory system and retracts its pull-based-timing
// declaration, forcing the engine down the conservative path that caps
// every skip at NextCompletion. The cap must be invisible in results —
// only in how many jumps a region takes — and this pins that.
type pushTimingMem struct {
	*cache.Hierarchy
}

func (pushTimingMem) PullBasedTiming() bool { return false }

// TestFastForwardCappedEquivalence asserts FF ON == FF OFF when the
// memory system does not declare pull-based timing (the capCompletions
// path, unused by the real systems but load-bearing for any future
// push-based one).
func TestFastForwardCappedEquivalence(t *testing.T) {
	run := func(noFF bool) ffOutcome {
		h := cache.MustNewHierarchy(cache.DefaultParams())
		fm := mem.New()
		pr := stallProg(t)
		pr.LoadInit(fm)
		cfg := DefaultConfig(Blocked, 4)
		cfg.NoFastForward = noFF
		p := MustNewProcessor(cfg, pushTimingMem{h}, fm)
		var threads []*Thread
		for i := 0; i < 4; i++ {
			th := NewThread(fmt.Sprintf("t%d", i), pr)
			th.SetIntReg(isa.R4, uint32(i))
			p.BindThread(i, th)
			threads = append(threads, th)
		}
		cycles, halted := p.RunUntilHalted(10_000_000)
		out := ffOutcome{cycles: cycles, halted: halted, stats: p.Stats, memHash: fm.Hash(), cacheStats: h.Stats}
		out.archHash = out.memHash
		for _, th := range threads {
			out.archHash = th.HashArchState(out.archHash)
		}
		return out
	}
	ff := run(false)
	off := run(true)
	if !ff.halted {
		t.Fatal("capped run did not halt")
	}
	compareOutcomes(t, "capped/blocked/4ctx", ff, off)
}

// TestFastForwardRunChunks asserts that Run in arbitrary chunk sizes —
// which cut skip regions at awkward boundaries — accumulates exactly the
// same stats fast-forwarded as stepped cycle by cycle. (The final chunk
// runs past the halt and charges idle either way, so the comparison is
// chunked-vs-chunked, not chunked-vs-RunUntilHalted.)
func TestFastForwardRunChunks(t *testing.T) {
	run := func(noFF bool) (Stats, uint64) {
		h := cache.MustNewHierarchy(cache.DefaultParams())
		fm := mem.New()
		pr := stallProg(t)
		pr.LoadInit(fm)
		cfg := DefaultConfig(Interleaved, 4)
		cfg.NoFastForward = noFF
		p := MustNewProcessor(cfg, h, fm)
		for i := 0; i < 4; i++ {
			th := NewThread(fmt.Sprintf("t%d", i), pr)
			th.SetIntReg(isa.R4, uint32(i))
			p.BindThread(i, th)
		}
		for !p.AllHalted() {
			p.Run(97) // prime-sized chunks to land mid-region
		}
		return p.Stats, fm.Hash()
	}
	ffStats, ffHash := run(false)
	offStats, offHash := run(true)
	if ffStats != offStats {
		t.Errorf("chunked Run stats diverge\n fast-forwarded: %+v\n stepped:        %+v", ffStats, offStats)
	}
	if ffHash != offHash {
		t.Errorf("chunked Run memory hash %#x fast-forwarded, %#x stepped", ffHash, offHash)
	}
}

// TestRunUntilHaltedLimits sweeps RunUntilHalted's limit across every
// cycle of a short fine-grained run — the scheme whose fixed 34-cycle
// memory sleeps make nearly every cycle part of a skippable region — and
// checks that stopping mid-skip charges exactly `limit` cycles with the
// same breakdown as cycle-by-cycle stepping. Also covers limit 0 and
// entry with every thread already halted.
func TestRunUntilHaltedLimits(t *testing.T) {
	build := func(noFF bool) (*Processor, *mem.Memory) {
		fm := mem.New()
		pr := sumProgram(t, 6, 0x100000)
		pr.LoadInit(fm)
		cfg := DefaultConfig(FineGrained, 1)
		cfg.NoFastForward = noFF
		p := MustNewProcessor(cfg, perfectMem{}, fm)
		p.BindThread(0, NewThread("t0", pr))
		return p, fm
	}

	ref, _ := build(true)
	total, done := ref.RunUntilHalted(1 << 20)
	if !done {
		t.Fatal("reference run did not halt")
	}

	for limit := int64(0); limit <= total+3; limit++ {
		pOff, _ := build(true)
		pFF, _ := build(false)
		cOff, dOff := pOff.RunUntilHalted(limit)
		cFF, dFF := pFF.RunUntilHalted(limit)
		if cOff != cFF || dOff != dFF {
			t.Fatalf("limit %d: stepped ran %d (halted=%v), fast-forwarded ran %d (halted=%v)",
				limit, cOff, dOff, cFF, dFF)
		}
		if pOff.Stats != pFF.Stats {
			t.Fatalf("limit %d: stats diverge\n stepped:        %+v\n fast-forwarded: %+v",
				limit, pOff.Stats, pFF.Stats)
		}
		if limit < total && cFF != limit {
			t.Fatalf("limit %d: ran %d cycles, want exactly the limit", limit, cFF)
		}
	}

	// Already-halted entry: a second call must run zero cycles.
	p, _ := build(false)
	p.RunUntilHalted(1 << 20)
	if c, done := p.RunUntilHalted(1000); c != 0 || !done {
		t.Errorf("already-halted entry ran %d cycles (halted=%v), want 0/true", c, done)
	}
	// Limit 0 never advances the clock, halted or not.
	q, _ := build(false)
	if c, done := q.RunUntilHalted(0); c != 0 || done {
		t.Errorf("limit 0 ran %d cycles (halted=%v), want 0/false", c, done)
	}
}

// BenchmarkStepFastForward measures raw simulation speed on the
// stall-heavy cell with the fast-forward engine on (default) and off,
// reporting simulated cycles per wall-clock second; the on/off ratio is
// the engine's speedup on that cell. Two cells: interleaved over the
// workstation hierarchy, whose short L2-hit stalls leave little to skip
// (the ratio bounds the engine's bookkeeping overhead near 1.0), and
// fine-grained, whose fixed full-latency memory sleeps are exactly the
// regions the engine elides. The multiprocessor grid, where remote
// latencies make whole schemes skippable, is measured by the repository
// benchmark's core-stall workload (core.ff_speedup_chain).
func BenchmarkStepFastForward(b *testing.B) {
	for _, cell := range []struct {
		scheme Scheme
		nctx   int
	}{
		{Interleaved, 4},
		{FineGrained, 4},
	} {
		for _, bc := range []struct {
			name string
			noFF bool
		}{
			{"fast-forward", false},
			{"stepped", true},
		} {
			b.Run(fmt.Sprintf("%v/%s", cell.scheme, bc.name), func(b *testing.B) {
				var total int64
				for i := 0; i < b.N; i++ {
					h := cache.MustNewHierarchy(cache.DefaultParams())
					fm := mem.New()
					pr := stallProg(b)
					pr.LoadInit(fm)
					cfg := DefaultConfig(cell.scheme, cell.nctx)
					cfg.NoFastForward = bc.noFF
					p := MustNewProcessor(cfg, h, fm)
					for c := 0; c < cell.nctx; c++ {
						th := NewThread(fmt.Sprintf("t%d", c), pr)
						th.SetIntReg(isa.R4, uint32(c))
						p.BindThread(c, th)
					}
					cycles, halted := p.RunUntilHalted(50_000_000)
					if !halted {
						b.Fatal("did not halt")
					}
					total += cycles
				}
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-cycles/sec")
			})
		}
	}
}

// BenchmarkIssueBusy times the busy issue path alone: an endless
// independent-add loop per context over an always-hit memory, so every
// slot selects a context and executes an instruction, nothing is
// skippable and no cache code runs. One op is one simulated cycle (one
// retired instruction, near enough); the go-test number beside the
// repository benchmark's core.busy_ns_per_inst probes.
func BenchmarkIssueBusy(b *testing.B) {
	for _, nctx := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%dctx", nctx), func(b *testing.B) {
			pb := prog.NewBuilder("busy", 0x1000, 0x10_0000, 1<<20)
			pb.Label("loop")
			for r := isa.R1; r <= isa.R8; r++ {
				pb.Addi(r, r, 1)
			}
			pb.J("loop")
			pr, err := pb.Build()
			if err != nil {
				b.Fatal(err)
			}
			p := MustNewProcessor(DefaultConfig(Interleaved, nctx), perfectMem{}, mem.New())
			for c := 0; c < nctx; c++ {
				p.BindThread(c, NewThread(fmt.Sprintf("t%d", c), pr))
			}
			p.Run(10_000) // BTB and scoreboard settled
			retired := p.Stats.Retired
			b.ReportAllocs()
			b.ResetTimer()
			p.Run(int64(b.N))
			b.StopTimer()
			if got := p.Stats.Retired - retired; got < int64(b.N)*9/10 {
				b.Fatalf("only %d instructions retired in %d cycles: the loop is not busy", got, b.N)
			}
		})
	}
}

// BenchmarkAdvanceILP is the calibration pair for Advance, after the
// low_ilp / high_ilp kernels of Durbhakula (arXiv:2008.10037): one
// context over an ideal instruction fetch, visited the way the
// multiprocessor's lockstep driver visits a node — Advance, and SkipTo
// when it reports a region. "high" is independent single-cycle adds, so
// every visit classifies and issues in the one pass; "low" is a chain of
// dependent FP adds, so visits alternate between an issue and the
// four-cycle interlock region behind it, which Advance hands back exactly
// as NextEvent does. One op is one visit. A change that helps the first
// must not tax the second.
func BenchmarkAdvanceILP(b *testing.B) {
	for _, bc := range []struct {
		name string
		body func(pb *prog.Builder)
	}{
		{"low", func(pb *prog.Builder) {
			for i := 0; i < 8; i++ {
				pb.FAdd(isa.F1, isa.F1, isa.F2)
			}
		}},
		{"high", func(pb *prog.Builder) {
			for r := isa.R1; r <= isa.R8; r++ {
				pb.Addi(r, r, 1)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pb := prog.NewBuilder("ilp-"+bc.name, 0x1000, 0x10_0000, 1<<20)
			pb.Label("loop")
			bc.body(pb)
			pb.J("loop")
			pr, err := pb.Build()
			if err != nil {
				b.Fatal(err)
			}
			p := MustNewProcessor(DefaultConfig(Single, 1), idealFetchMem{newFakeMem(40)}, mem.New())
			p.BindThread(0, NewThread("t0", pr))
			visit := func(n int) {
				for i := 0; i < n; i++ {
					if cls, ctx, until := p.Advance(); until > p.Now() {
						p.SkipTo(until, cls, ctx)
					}
				}
			}
			visit(10_000) // BTB and scoreboard settled
			retired, cycles := p.Stats.Retired, p.Stats.Cycles
			b.ReportAllocs()
			b.ResetTimer()
			visit(b.N)
			b.StopTimer()
			retired, cycles = p.Stats.Retired-retired, p.Stats.Cycles-cycles
			if low := bc.name == "low"; low != (cycles > 3*retired) {
				b.Fatalf("%d instructions in %d cycles: not the %s-ILP kernel", retired, cycles, bc.name)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(retired), "ns/inst")
		})
	}
}

// BenchmarkAdvanceCountedFetch is BenchmarkAdvanceILP over the
// workstation's counting I-cache (cache.Hierarchy), driven as the
// workstation drives it, by Run: "issue" is independent single-cycle adds,
// so every cycle classifies, counts its fetch and issues in the one pass;
// "interlock" is a chain of dependent integer divides, so nearly every
// cycle re-fetches a resident line behind an interlock and goes by in a
// counted region. One op is one simulated cycle; the repository
// benchmark's core.busy_ns_per_inst / core.chain_ns_per_cycle are the
// end-to-end readings of the same pair.
func BenchmarkAdvanceCountedFetch(b *testing.B) {
	for _, bc := range []struct {
		name string
		body func(pb *prog.Builder)
	}{
		{"issue", func(pb *prog.Builder) {
			for r := isa.R1; r <= isa.R8; r++ {
				pb.Addi(r, r, 1)
			}
		}},
		{"interlock", func(pb *prog.Builder) {
			pb.Li(isa.R2, 1)
			for i := 0; i < 8; i++ {
				pb.Div(isa.R1, isa.R1, isa.R2)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pb := prog.NewBuilder("counted-"+bc.name, 0x1000, 0x10_0000, 1<<20)
			pb.Label("loop")
			bc.body(pb)
			pb.J("loop")
			pr, err := pb.Build()
			if err != nil {
				b.Fatal(err)
			}
			h := cache.MustNewHierarchy(cache.DefaultParams())
			p := MustNewProcessor(DefaultConfig(Single, 1), h, mem.New())
			p.BindThread(0, NewThread("t0", pr))
			p.Run(10_000) // I-lines, BTB and scoreboard settled
			retired, fetches := p.Stats.Retired, h.Stats.InstFetches
			b.ReportAllocs()
			b.ResetTimer()
			p.Run(int64(b.N))
			b.StopTimer()
			retired, fetches = p.Stats.Retired-retired, h.Stats.InstFetches-fetches
			if interlock := bc.name == "interlock"; b.N >= 1000 && interlock != (int64(b.N) > 3*retired) {
				b.Fatalf("%d instructions in %d cycles: not the %s kernel", retired, b.N, bc.name)
			}
			if fetches < int64(b.N)*9/10 {
				b.Fatalf("%d fetches in %d cycles: the kernel left the I-cache", fetches, b.N)
			}
		})
	}
}

// TestFastForwardTraceDisablesSkips: a Trace hook must see every cycle,
// so the engine must refuse to skip while one is installed.
func TestFastForwardTraceDisablesSkips(t *testing.T) {
	fm := mem.New()
	pr := sumProgram(t, 4, 0x100000)
	p := MustNewProcessor(DefaultConfig(FineGrained, 1), perfectMem{}, fm)
	p.BindThread(0, NewThread("t0", pr))
	var events int64
	p.Trace = func(TraceEvent) { events++ }
	cycles, done := p.RunUntilHalted(1 << 20)
	if !done {
		t.Fatal("did not halt")
	}
	if events != cycles {
		t.Errorf("trace saw %d events over %d cycles; fast-forward must be off under tracing", events, cycles)
	}
}

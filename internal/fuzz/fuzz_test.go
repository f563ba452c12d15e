package fuzz

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/prog"
)

// TestFuzzSmoke is the tier-1 entry point: a tiny fixed-seed sweep on the
// quick grid must come back clean. Any divergence here means a scheme
// broke architectural semantics (or the generator lost race-freedom) and
// should block the build.
func TestFuzzSmoke(t *testing.T) {
	rep, err := Sweep(context.Background(), SweepConfig{
		Programs:    2,
		BaseSeed:    20260808,
		Parallelism: 2,
		Quick:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		var buf bytes.Buffer
		rep.Render(&buf)
		t.Fatalf("smoke sweep not clean:\n%s", buf.String())
	}
	if rep.TotalCells == 0 || len(rep.Programs) != 2 {
		t.Fatalf("report shape: cells=%d programs=%d", rep.TotalCells, len(rep.Programs))
	}
}

// TestGenerateAlwaysValid: Generate must produce a Validate-clean spec
// that builds under every yield mode, for a spread of seeds and thread
// counts.
func TestGenerateAlwaysValid(t *testing.T) {
	for i := 0; i < 40; i++ {
		seed := experiments.DeriveSeed(7, i)
		threads := 1 + i%4
		s := Generate(seed, threads)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d T=%d: %v", seed, threads, err)
		}
		for _, mode := range []prog.YieldMode{prog.YieldNone, prog.YieldSwitch, prog.YieldBackoff} {
			if _, err := BuildProgram(s, mode); err != nil {
				t.Fatalf("seed %d T=%d mode %d: %v", seed, threads, mode, err)
			}
		}
	}
}

// TestValidateRejectsRaces: the validator must refuse the spec shapes
// that would make generated programs schedule-dependent — the exact bug
// classes the fuzzer itself surfaced during bring-up.
func TestValidateRejectsRaces(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Seed: 1, Threads: 2, NAccs: 2, NLocks: 2,
			ROW: []uint32{1}, AccInit: []uint32{0, 0},
			AccOps: []string{"add", "xor"}, AccLock: []int{0, 1},
			Phases: [][]Item{{{Kind: KCrit, A: 0, B: 0, N: 1}}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}

	s := base()
	s.Phases[0] = append(s.Phases[0], Item{Kind: KCrit, A: 1, B: 0, N: 1})
	if err := s.Validate(); err == nil {
		t.Error("cross-lock update of one accumulator accepted (lost-update race)")
	}

	s = base()
	s.Phases[0][0] = Item{Kind: KLoop, A: 1, B: 0, N: 2}
	if err := s.Validate(); err == nil {
		t.Error("loop RMW under the wrong lock accepted")
	}

	s = base()
	s.AccOps = []string{"add", "sub"}
	if err := s.Validate(); err == nil {
		t.Error("non-commutative accumulator operator accepted")
	}

	s = base()
	s.AccOps = s.AccOps[:1]
	if err := s.Validate(); err == nil {
		t.Error("short acc_ops accepted")
	}

	s = base()
	s.AccLock = []int{0, 5}
	if err := s.Validate(); err == nil {
		t.Error("out-of-range acc_lock accepted")
	}

	s = base()
	s.Phases[0] = append(s.Phases[0], Item{Kind: KRead, A: 0, B: 0})
	if err := s.Validate(); err == nil {
		t.Error("same-phase read/update of one accumulator accepted")
	}
}

// TestSweepDeterministicAcrossParallelism is the grid-scale acceptance
// check: a >=500-cell fixed-seed sweep must render byte-identically at
// -j 1 and -j 8 (results are keyed by cell index, never by completion
// order).
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	programs := 12
	if testing.Short() {
		programs = 4
	}
	render := func(par int) (string, *SweepReport) {
		rep, err := Sweep(context.Background(), SweepConfig{
			Programs:    programs,
			BaseSeed:    20260808,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		return buf.String(), rep
	}
	serial, rep1 := render(1)
	parallel, rep8 := render(8)
	if serial != parallel {
		t.Fatalf("report differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}
	if !rep1.Clean() {
		t.Fatalf("seed sweep not clean:\n%s", serial)
	}
	if !testing.Short() && rep8.TotalCells < 500 {
		t.Fatalf("grid too small for the acceptance sweep: %d cells, want >= 500", rep8.TotalCells)
	}
}

// TestInjectedSchemeBugCaught proves the oracle end to end: demote every
// TAS to a plain load (so locks and the barrier stop closing), and the
// sweep must flag the program, shrink it, and write a reproducer that
// still fails on replay.
func TestInjectedSchemeBugCaught(t *testing.T) {
	corpus := t.TempDir()
	lim := Limits{MaxCycles: 1_500_000, MaxSteps: 1_000_000}
	rep, err := Sweep(context.Background(), SweepConfig{
		Programs:     1,
		BaseSeed:     20260808,
		Threads:      2,
		Parallelism:  4,
		Quick:        true,
		CorpusDir:    corpus,
		Limits:       lim,
		Mut:          MutTASPlain,
		ShrinkBudget: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("broken TAS not detected")
	}
	pr := rep.Programs[0]
	if pr.Repro == "" {
		t.Fatal("no reproducer written")
	}
	if pr.ShrunkItems > pr.OrigItems {
		t.Fatalf("shrink grew the spec: %d -> %d items", pr.OrigItems, pr.ShrunkItems)
	}
	if _, err := os.Stat(filepath.Join(pr.Repro, "repro.s")); err != nil {
		t.Fatalf("reproducer assembly missing: %v", err)
	}

	// The minimized reproducer must still fail when replayed cold.
	loaded, err := LoadReproducer(pr.Repro)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Spec.Mut != MutTASPlain {
		t.Fatalf("reproducer lost its mutation: %q", loaded.Spec.Mut)
	}
	pool := experiments.NewPool(4)
	cells, results, err := RunProgram(context.Background(), loaded.Spec, true, lim, pool)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for _, r := range results {
		if r != nil && r.Err != "" {
			errs++
		}
	}
	if divs := Check(cells, results); len(divs) == 0 && errs == 0 {
		t.Fatal("minimized reproducer replays clean")
	}
}

// TestReproducerAsmRoundTrip: the rendered .s source must re-assemble to
// the exact instruction stream and data image of the original build, so
// a reproducer can be replayed through the assembler path without the
// fuzzer in the loop.
func TestReproducerAsmRoundTrip(t *testing.T) {
	for i := 0; i < 8; i++ {
		seed := experiments.DeriveSeed(991, i)
		s := Generate(seed, 1+i%4)
		if i%3 == 0 {
			s.Mut = MutTASPlain
		}
		want, err := BuildProgram(s, prog.YieldBackoff)
		if err != nil {
			t.Fatal(err)
		}
		src, err := RenderAsm(s, prog.YieldBackoff)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prog.Assemble(s.Name(), CodeBase, DataBase, DataSize, src)
		if err != nil {
			t.Fatalf("seed %d: re-assemble: %v", seed, err)
		}
		if len(got.Insts) != len(want.Insts) {
			t.Fatalf("seed %d: %d insts, want %d", seed, len(got.Insts), len(want.Insts))
		}
		for j := range want.Insts {
			w, g := want.Insts[j], got.Insts[j]
			if g.Op != w.Op || g.Rd != w.Rd || g.Rs != w.Rs || g.Rt != w.Rt ||
				g.Imm != w.Imm || g.Target != w.Target || g.Region != w.Region {
				t.Fatalf("seed %d inst %d: got %+v, want %+v", seed, j, g, w)
			}
		}
		if len(got.Init) != len(want.Init) {
			t.Fatalf("seed %d: %d init entries, want %d", seed, len(got.Init), len(want.Init))
		}
		wantInit := map[uint32]uint64{}
		for _, d := range want.Init {
			wantInit[d.Addr] = d.Val
		}
		for _, d := range got.Init {
			if wantInit[d.Addr] != d.Val {
				t.Fatalf("seed %d: init at %#x = %#x, want %#x", seed, d.Addr, d.Val, wantInit[d.Addr])
			}
		}
	}
}

// TestCorpusBuildsPinned pins Program.Fingerprint of the checked-in
// reproducer's spec under each yield mode: the Builder must link the
// generator's programs to the same bytes.
func TestCorpusBuildsPinned(t *testing.T) {
	rep, err := LoadReproducer(filepath.Join("testdata", "corpus", "fuzz-d6927cc28841f924"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode prog.YieldMode
		want uint64
	}{
		{prog.YieldNone, 0xa835fa290c8ca7a0},
		{prog.YieldSwitch, 0x346c7f114b3a2ba7},
		{prog.YieldBackoff, 0x6a1c59f663c6e0dc},
	} {
		p, err := BuildProgram(rep.Spec, c.mode)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Fingerprint(); got != c.want {
			t.Errorf("yield %v: fingerprint %#016x, want %#016x", c.mode, got, c.want)
		}
	}
}

// TestCheckedInCorpusStillFails: every reproducer under testdata/corpus
// captures a known-bad program (injected scheme bug); each must keep
// failing on replay, or the corpus has gone stale.
func TestCheckedInCorpusStillFails(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty corpus")
	}
	pool := experiments.NewPool(4)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			rep, err := LoadReproducer(filepath.Join("testdata", "corpus", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lim := Limits{MaxCycles: 1_500_000, MaxSteps: 1_000_000}
			cells, results, err := RunProgram(context.Background(), rep.Spec, true, lim, pool)
			if err != nil {
				t.Fatal(err)
			}
			errs := 0
			for _, r := range results {
				if r != nil && r.Err != "" {
					errs++
				}
			}
			if divs := Check(cells, results); len(divs) == 0 && errs == 0 {
				t.Fatal("checked-in reproducer replays clean")
			}
		})
	}
}

// TestReplayMatchesSweep: a clean program's reproducer-style replay path
// (RunProgram + Check on a loaded spec) agrees with the sweep path.
func TestReplayMatchesSweep(t *testing.T) {
	dir := t.TempDir()
	s := Generate(experiments.DeriveSeed(20260808, 0), 2)
	sub, err := WriteReproducer(dir, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReproducer(sub)
	if err != nil {
		t.Fatal(err)
	}
	pool := experiments.NewPool(2)
	cells, results, err := RunProgram(context.Background(), loaded.Spec, true, Limits{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r != nil && r.Err != "" {
			t.Fatalf("cell error on clean program: %s: %s", r.Key, r.Err)
		}
	}
	if divs := Check(cells, results); len(divs) != 0 {
		t.Fatalf("clean program diverged on replay: %v", divs)
	}
}

// TestMutationRewritesOnlyItsOwnProgram pins applyMutation's in-place
// TAS→LW rewrite to a program BuildProgram linked for that call alone:
// every call links through its own Builder and never through the
// process-wide memo of shared programs (prog.Shared), so the rewrite cannot
// reach a program any other cell holds.
func TestMutationRewritesOnlyItsOwnProgram(t *testing.T) {
	prog.ResetShared()
	defer prog.ResetShared()
	spec := Generate(experiments.DeriveSeed(20260808, 0), 2)
	clean, err := BuildProgram(spec, prog.YieldBackoff)
	if err != nil {
		t.Fatal(err)
	}
	sum := clean.Fingerprint()

	broken := *spec
	broken.Mut = MutTASPlain
	mutated, err := BuildProgram(&broken, prog.YieldBackoff)
	if err != nil {
		t.Fatal(err)
	}
	if mutated == clean {
		t.Fatal("the mutated build returned the clean build's program")
	}
	if &mutated.Insts[0] == &clean.Insts[0] {
		t.Fatal("the mutated build aliases the clean build's instructions")
	}
	for i := range mutated.Insts {
		if mutated.Insts[i].Op == isa.TAS {
			t.Fatalf("instruction %d of the mutated program is still a TAS", i)
		}
	}
	if clean.Fingerprint() != sum {
		t.Error("mutating one build rewrote another build's program")
	}
	if again, err := BuildProgram(spec, prog.YieldBackoff); err != nil || again == clean || again.Fingerprint() != sum {
		t.Errorf("a clean build after the mutation is not a fresh, identical program (err %v)", err)
	}
	if b, h, _ := prog.SharedStats(); b != 0 || h != 0 {
		t.Errorf("BuildProgram went through the shared-program memo: %d builds, %d hits", b, h)
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// These tests pin the core-layer snapshot property: Save → Restore into
// a fresh machine → run N blocks is byte-identical to the uninterrupted
// run, at arbitrary 64-cycle block boundaries, for every scheme, with
// fast-forward on or off and chaos on or off. The machine here is the
// bare uniprocessor (processor + hierarchy + functional memory); the
// workstation and mp packages test their drivers' own checkpoints.

type uniMachine struct {
	proc    *Processor
	h       *cache.Hierarchy
	fm      *mem.Memory
	threads []*Thread
}

func buildStallMachine(t *testing.T, scheme Scheme, nctx int, noFF bool, chaosSeed int64) *uniMachine {
	t.Helper()
	return buildMachine(t, stallProg(t), scheme, nctx, noFF, chaosSeed)
}

// buildMachine runs one thread of pr per context (R4 = thread id) on a
// default hierarchy.
func buildMachine(t *testing.T, pr *prog.Program, scheme Scheme, nctx int, noFF bool, chaosSeed int64) *uniMachine {
	t.Helper()
	params := cache.DefaultParams()
	if chaosSeed != 0 {
		params.Chaos = guard.Options{ChaosSeed: chaosSeed}.NewChaos()
	}
	h := cache.MustNewHierarchy(params)
	fm := mem.New()
	pr.LoadInit(fm)
	cfg := DefaultConfig(scheme, nctx)
	cfg.NoFastForward = noFF
	p := MustNewProcessor(cfg, h, fm)
	m := &uniMachine{proc: p, h: h, fm: fm}
	for i := 0; i < nctx; i++ {
		th := NewThread(fmt.Sprintf("t%d", i), pr)
		th.SetIntReg(isa.R4, uint32(i))
		p.BindThread(i, th)
		m.threads = append(m.threads, th)
	}
	return m
}

func (m *uniMachine) save() []byte {
	w := snapshot.NewWriter()
	for _, th := range m.threads {
		th.SaveState(w)
	}
	m.proc.SaveState(w)
	m.h.SaveState(w)
	m.fm.SaveState(w)
	return w.Bytes()
}

func (m *uniMachine) restore(t *testing.T, data []byte) {
	t.Helper()
	r := snapshot.NewReader(data)
	for _, th := range m.threads {
		th.RestoreState(r)
	}
	m.proc.RestoreState(r)
	m.h.RestoreState(r)
	m.fm.RestoreState(r)
	if err := snapshot.Finish(r); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

func (m *uniMachine) outcome() ffOutcome {
	out := ffOutcome{
		cycles:     m.proc.Now(),
		halted:     m.proc.AllHalted(),
		stats:      m.proc.Stats,
		memHash:    m.fm.Hash(),
		cacheStats: m.h.Stats,
	}
	out.archHash = out.memHash
	for _, th := range m.threads {
		out.archHash = th.HashArchState(out.archHash)
	}
	return out
}

const uniRunLimit = 10_000_000

func TestSnapshotRestoreAtBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, scheme := range []Scheme{Single, Blocked, BlockedFast, Interleaved, FineGrained} {
		nctx := 4
		if scheme == Single {
			nctx = 1
		}
		for _, noFF := range []bool{false, true} {
			for _, chaosSeed := range []int64{0, 77} {
				name := fmt.Sprintf("%v/noFF=%v/chaos=%d", scheme, noFF, chaosSeed)
				t.Run(name, func(t *testing.T) {
					ref := buildStallMachine(t, scheme, nctx, noFF, chaosSeed)
					if _, halted, err := ref.proc.RunGuardedCtx(nil, uniRunLimit, guard.Options{}); err != nil || !halted {
						t.Fatalf("reference run: halted=%v err=%v", halted, err)
					}
					want := ref.outcome()

					at := 64 * (1 + rng.Int63n(want.cycles/64-1))
					a := buildStallMachine(t, scheme, nctx, noFF, chaosSeed)
					if _, halted, err := a.proc.RunGuardedCtx(nil, at, guard.Options{}); err != nil || halted {
						t.Fatalf("prefix run to %d: halted=%v err=%v", at, halted, err)
					}
					ckpt := a.save()

					b := buildStallMachine(t, scheme, nctx, noFF, chaosSeed)
					b.restore(t, ckpt)
					// Restore fidelity: re-serializing the restored machine
					// must reproduce the checkpoint byte-for-byte, and the
					// layer hashes must agree with the source machine.
					if !bytes.Equal(b.save(), ckpt) {
						t.Fatal("restored machine re-serializes differently")
					}
					if b.h.Hash() != a.h.Hash() {
						t.Fatal("hierarchy hash differs after restore")
					}
					if b.proc.MachineHash() != a.proc.MachineHash() {
						t.Fatal("machine hash differs after restore")
					}

					for _, m := range []*uniMachine{a, b} {
						if _, halted, err := m.proc.RunGuardedCtx(nil, uniRunLimit, guard.Options{}); err != nil || !halted {
							t.Fatalf("continuation: halted=%v err=%v", halted, err)
						}
					}
					if got := a.outcome(); got != want {
						t.Errorf("interrupted run diverges from uninterrupted at boundary %d:\n got %+v\nwant %+v", at, got, want)
					}
					if got := b.outcome(); got != want {
						t.Errorf("restored run diverges from uninterrupted at boundary %d:\n got %+v\nwant %+v", at, got, want)
					}
				})
			}
		}
	}
}

// TestBlockHookCheckpoint drives the per-block hook: a checkpoint
// captured from inside RunGuardedCtx (between guard chunks) restores
// into a run indistinguishable from the uninterrupted one.
func TestBlockHookCheckpoint(t *testing.T) {
	ref := buildStallMachine(t, Interleaved, 4, false, 5)
	if _, halted, err := ref.proc.RunGuardedCtx(nil, uniRunLimit, guard.Options{}); err != nil || !halted {
		t.Fatalf("reference run: halted=%v err=%v", halted, err)
	}
	want := ref.outcome()

	a := buildStallMachine(t, Interleaved, 4, false, 5)
	var ckpt []byte
	var capturedAt int64
	a.proc.BlockHook = func(now int64) {
		if ckpt == nil && now >= 4096 && !a.proc.AllHalted() {
			capturedAt = now
			a.proc.BlockHook = nil // one capture is enough
			ckpt = a.save()
		}
	}
	if _, halted, err := a.proc.RunGuardedCtx(nil, uniRunLimit, guard.Options{}); err != nil || !halted {
		t.Fatalf("hooked run: halted=%v err=%v", halted, err)
	}
	if ckpt == nil {
		t.Fatal("hook never captured a checkpoint")
	}
	if capturedAt%64 != 0 {
		t.Fatalf("hook fired off the block grid: cycle %d", capturedAt)
	}
	if got := a.outcome(); got != want {
		t.Errorf("hooked run diverges from uninterrupted run")
	}

	b := buildStallMachine(t, Interleaved, 4, false, 5)
	b.restore(t, ckpt)
	if b.proc.Now() != capturedAt {
		t.Fatalf("restored clock = %d, want %d", b.proc.Now(), capturedAt)
	}
	if _, halted, err := b.proc.RunGuardedCtx(nil, uniRunLimit, guard.Options{}); err != nil || !halted {
		t.Fatalf("restored run: halted=%v err=%v", halted, err)
	}
	if got := b.outcome(); got != want {
		t.Errorf("run restored from the block hook diverges from the uninterrupted run")
	}
}

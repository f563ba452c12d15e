package fuzz

// Cell planning and execution: one generated program fans out into a
// grid of (machine, ordering/scheme, fast-forward, chaos) cells, each of
// which produces a digest record the oracle compares.

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mp"
	"repro/internal/osmodel"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// Limits bounds a single cell. The zero value selects defaults generous
// enough for every generated program (normal runs finish in tens of
// thousands of cycles; the bound exists to convert deadlock into a
// reported cell error instead of a hang).
type Limits struct {
	MaxCycles int64 // timing machines
	MaxSteps  int64 // functional executor
}

func (l Limits) withDefaults() Limits {
	if l.MaxCycles <= 0 {
		l.MaxCycles = 12_000_000
	}
	if l.MaxSteps <= 0 {
		l.MaxSteps = 3_000_000
	}
	return l
}

// Cell names one execution of a generated program.
type Cell struct {
	Machine  string      // "func", "uni", "ws", "mp"
	Ordering Ordering    // functional executor only
	Scheme   core.Scheme // timing machines only
	Procs    int         // mp only
	Contexts int         // contexts per processor (timing machines)
	FF       bool        // fast-forward engine on
	Chaos    int64       // chaos latency-injection seed, 0 = off
	// Restore forks the run through the snapshot codec: the machine is
	// serialized at a derived 64-cycle block boundary, restored into a
	// freshly built twin, and finished there. The switch recorder spans
	// both phases, so the oracle compares the forked cell's full digest
	// — cycles, switch chain, arch hash — strictly against its unforked
	// sibling ("uni" machine only).
	Restore bool
}

// Key is the cell's stable identity, used in reports and divergence
// records.
func (c Cell) Key() string {
	switch c.Machine {
	case "func":
		return "func/" + c.Ordering.String()
	case "mp":
		return fmt.Sprintf("mp/p%dc%d/%s/%s%s%s", c.Procs, c.Contexts, c.Scheme, ffTag(c.FF), chaosTag(c.Chaos), restoreTag(c.Restore))
	default:
		return fmt.Sprintf("%s/%s/%s%s%s", c.Machine, c.Scheme, ffTag(c.FF), chaosTag(c.Chaos), restoreTag(c.Restore))
	}
}

// GroupKey identifies the strict-comparison group: cells differing only
// in fast-forward mode or a snapshot fork are the same machine at the
// same cycle-level schedule, so their cycle counts, switch chains, and
// full register hashes must all match exactly.
func (c Cell) GroupKey() string {
	c.FF = false
	c.Restore = false
	return c.Key()
}

func ffTag(ff bool) string {
	if ff {
		return "ff"
	}
	return "noff"
}

func chaosTag(seed int64) string {
	if seed != 0 {
		return "/chaos"
	}
	return ""
}

func restoreTag(restore bool) string {
	if restore {
		return "/restore"
	}
	return ""
}

// yieldMode is the compilation mode for the cell's machine: the
// functional executor uses the interleaved (backoff) build.
func (c Cell) yieldMode() prog.YieldMode {
	if c.Machine == "func" {
		return prog.YieldBackoff
	}
	return c.Scheme.YieldMode()
}

// CellResult is the digest record a cell produces.
type CellResult struct {
	Key   string         `json:"key"`
	Yield prog.YieldMode `json:"yield"`
	// MemHash digests final memory — must match across every cell of the
	// program.
	MemHash uint64 `json:"mem_hash"`
	// CleanHash digests final PC/halt/registers excluding the dirty spin
	// scratch — must match across cells sharing a build (yield mode).
	CleanHash uint64 `json:"clean_hash"`
	// ArchHash is the full-state digest (memory + every register) — must
	// match within a strict (fast-forward on/off) group.
	ArchHash uint64 `json:"arch_hash"`
	// Cycles is the cell's cycle count (instruction steps for the
	// functional executor).
	Cycles int64 `json:"cycles"`
	// Switches counts context switches; Chain holds the state hash taken
	// at each of the first maxChain switches.
	Switches int64    `json:"switches"`
	Chain    []uint64 `json:"-"`
	Err      string   `json:"err,omitempty"`
}

// maxChain bounds the per-cell switch-hash chain; switches beyond it are
// still counted. Spin-heavy schedules can switch millions of times;
// chains exist to localize divergence, not to archive every switch.
const maxChain = 2048

// recorder accumulates the switch-point hash chain for one cell.
type recorder struct {
	chain    []uint64
	switches int64
}

// observe hashes memory plus the switching-away thread's architectural
// state at a context-switch point.
func (r *recorder) observe(m *mem.Memory, th *core.Thread, proc, ctx int, now int64) {
	r.switches++
	if len(r.chain) >= maxChain {
		return
	}
	h := snapshot.Fold(snapshot.FNVOffset, uint64(now))
	h = snapshot.Fold(h, uint64(proc)<<32|uint64(uint32(ctx)))
	h = snapshot.Fold(h, m.Hash())
	r.chain = append(r.chain, th.HashArchState(h))
}

// cleanHash digests the ordering-independent architectural state: PC,
// halt flag, and every register except the quarantined spin scratch.
func cleanHash(ths []*core.Thread) uint64 {
	h := uint64(snapshot.FNVOffset)
	for _, th := range ths {
		h = snapshot.Fold(h, uint64(uint32(th.PC)))
		if th.Halted {
			h = snapshot.Fold(h, 1)
		} else {
			h = snapshot.Fold(h, 0)
		}
		for r, v := range th.Regs {
			if DirtyRegs[isa.Reg(r)] {
				continue
			}
			h = snapshot.Fold(h, v)
		}
	}
	return h
}

func archHash(memHash uint64, ths []*core.Thread) uint64 {
	h := memHash
	for _, th := range ths {
		h = th.HashArchState(h)
	}
	return h
}

// PlanCells lays out the cell grid for one spec. The first cell is
// always func/rr — the oracle's reference. quick selects a ~10-cell
// subset for smoke tests, native fuzz targets, and shrinking.
func PlanCells(s *Spec, quick bool) []Cell {
	T := s.Threads
	var cells []Cell
	seqOK := len(s.Phases) == 1 || T == 1

	// Functional orderings.
	cells = append(cells, Cell{Machine: "func", Ordering: Ordering{Kind: "rr"}})
	if seqOK {
		cells = append(cells, Cell{Machine: "func", Ordering: Ordering{Kind: "seq"}})
	}
	cells = append(cells, Cell{Machine: "func", Ordering: Ordering{Kind: "every", X: 2}})
	if !quick {
		cells = append(cells,
			Cell{Machine: "func", Ordering: Ordering{Kind: "every", X: 7}},
			Cell{Machine: "func", Ordering: Ordering{Kind: "every", X: 16}},
		)
	}
	cells = append(cells, Cell{Machine: "func", Ordering: Ordering{Kind: "rand", Seed: 1}})
	if !quick {
		cells = append(cells, Cell{Machine: "func", Ordering: Ordering{Kind: "rand", Seed: 2}})
	}

	chaosSeed := func(k int) int64 {
		seed := experiments.DeriveSeed(s.Seed, 0x7a05+k)
		if seed == 0 {
			seed = 1
		}
		return seed
	}

	// Uniprocessor (bare core + cache hierarchy), all schemes, FF on/off.
	uniSchemes := schemesFor(T)
	if quick {
		uniSchemes = []core.Scheme{core.Blocked, core.Interleaved}
		if T == 1 {
			uniSchemes = []core.Scheme{core.Single, core.Interleaved}
		}
	}
	for _, sch := range uniSchemes {
		for _, ff := range []bool{true, false} {
			cells = append(cells, Cell{Machine: "uni", Scheme: sch, Contexts: T, FF: ff})
		}
	}
	// Snapshot-codec crosscheck: forked twins of existing uni cells,
	// serialized and restored at a seed-derived block boundary. Their
	// digests land in the same strict groups as the unforked cells, so
	// the oracle compares them cycle-for-cycle and hash-for-hash.
	cells = append(cells,
		Cell{Machine: "uni", Scheme: uniSchemes[0], Contexts: T, FF: true, Restore: true},
		Cell{Machine: "uni", Scheme: core.Interleaved, Contexts: T, FF: true, Restore: true},
	)
	if !quick {
		// Chaos latency injection: timing perturbed, semantics must not be.
		cells = append(cells,
			Cell{Machine: "uni", Scheme: core.Interleaved, Contexts: T, FF: true, Chaos: chaosSeed(0)},
			Cell{Machine: "uni", Scheme: uniSchemes[0], Contexts: T, FF: true, Chaos: chaosSeed(1)},
		)
		// Forked twins with fast-forward off and under chaos: the codec
		// must round-trip the slow path and perturbed latencies too.
		cells = append(cells,
			Cell{Machine: "uni", Scheme: core.Interleaved, Contexts: T, FF: false, Restore: true},
			Cell{Machine: "uni", Scheme: core.Interleaved, Contexts: T, FF: true, Chaos: chaosSeed(0), Restore: true},
		)

		// Workstation environment: OS scheduler interference at slice
		// boundaries on top of the uniprocessor machine.
		for _, sch := range uniSchemes {
			for _, ff := range []bool{true, false} {
				cells = append(cells, Cell{Machine: "ws", Scheme: sch, Contexts: T, FF: ff})
			}
		}
	}

	// Multiprocessor: every (procs × contexts) factorization of T.
	facts := factorizations(T)
	if quick {
		facts = facts[len(facts)-1:]
	}
	for fi, f := range facts {
		mpSchemes := schemesFor(f.c)
		if quick {
			mpSchemes = []core.Scheme{core.Interleaved}
		}
		for _, sch := range mpSchemes {
			for _, ff := range []bool{true, false} {
				cells = append(cells, Cell{Machine: "mp", Scheme: sch, Procs: f.p, Contexts: f.c, FF: ff})
			}
		}
		if !quick {
			cells = append(cells, Cell{
				Machine: "mp", Scheme: mpSchemes[len(mpSchemes)-1],
				Procs: f.p, Contexts: f.c, FF: true, Chaos: chaosSeed(2 + fi),
			})
		}
	}
	return cells
}

func schemesFor(contexts int) []core.Scheme {
	if contexts == 1 {
		return []core.Scheme{core.Single, core.Blocked, core.BlockedFast, core.Interleaved, core.FineGrained}
	}
	return []core.Scheme{core.Blocked, core.BlockedFast, core.Interleaved, core.FineGrained}
}

type fact struct{ p, c int }

// factorizations lists (procs, contexts) splits of T threads: all on one
// processor, a balanced split when possible, and one context everywhere.
func factorizations(T int) []fact {
	facts := []fact{{1, T}}
	for p := 2; p < T; p++ {
		if T%p == 0 {
			facts = append(facts, fact{p, T / p})
		}
	}
	if T > 1 {
		facts = append(facts, fact{T, 1})
	}
	return facts
}

// RunCell builds the program for the cell's compilation mode and runs
// it. Every error path is captured in CellResult.Err (a cell error is a
// finding, not an abort), except context cancellation, which propagates.
func RunCell(ctx context.Context, s *Spec, c Cell, lim Limits) (*CellResult, error) {
	lim = lim.withDefaults()
	res := &CellResult{Key: c.Key(), Yield: c.yieldMode()}
	p, err := BuildProgram(s, res.Yield)
	if err != nil {
		return nil, err // spec-level problem: every cell would fail identically
	}
	rec := &recorder{}
	var m *mem.Memory
	var ths []*core.Thread
	var cycles int64
	switch c.Machine {
	case "func":
		// cycles stays 0: the functional executor has no clock, and the
		// oracle never compares cycle counts across machines.
		m, ths, err = funcRun(ctx, p, s.Threads, c.Ordering, lim.MaxSteps, rec)
	case "uni", "ws":
		m, ths, cycles, err = runUni(ctx, p, s, c, lim, rec)
	case "mp":
		m, ths, cycles, err = runMP(ctx, p, s, c, lim, rec)
	default:
		return nil, fmt.Errorf("fuzz: unknown machine %q", c.Machine)
	}
	if err != nil {
		if guard.IsCancellation(err) || ctx.Err() != nil {
			return nil, err
		}
		res.Err = err.Error()
		return res, nil
	}
	res.MemHash = m.Hash()
	res.CleanHash = cleanHash(ths)
	res.ArchHash = archHash(res.MemHash, ths)
	res.Cycles = cycles
	res.Switches = rec.switches
	res.Chain = rec.chain
	return res, nil
}

// runUni executes the cell on a single multiple-context processor with
// the standard cache hierarchy; machine "ws" adds OS-scheduler cache and
// TLB interference at fixed slice boundaries (timing-only effects, so
// fast-forward pairs stay strictly comparable).
func runUni(ctx context.Context, p *prog.Program, s *Spec, c Cell, lim Limits, rec *recorder) (*mem.Memory, []*core.Thread, int64, error) {
	// build constructs one complete machine; Restore cells build a
	// second, identical one to restore the checkpoint into.
	build := func() (*cache.Hierarchy, *mem.Memory, *core.Processor, []*core.Thread, error) {
		ccfg := core.DefaultConfig(c.Scheme, c.Contexts)
		ccfg.NoFastForward = !c.FF
		params := cache.DefaultParams()
		params.Chaos = guard.Options{ChaosSeed: c.Chaos}.NewChaos()
		h, err := cache.NewHierarchy(params)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		fm := mem.New()
		p.LoadInit(fm)
		proc, err := core.NewProcessor(ccfg, h, fm)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		ths := make([]*core.Thread, c.Contexts)
		for i := range ths {
			ths[i] = core.NewThread(fmt.Sprintf("%s.t%d", p.Name, i), p)
			ths[i].SetIntReg(mp.TidReg, uint32(i))
			ths[i].SetIntReg(mp.NThreadsReg, uint32(c.Contexts))
			proc.BindThread(i, ths[i])
		}
		proc.SwitchWatch = func(now int64, ctx int) {
			rec.observe(fm, proc.ThreadAt(ctx), 0, ctx, now)
		}
		return h, fm, proc, ths, nil
	}
	h, fm, proc, ths, err := build()
	if err != nil {
		return nil, nil, 0, err
	}

	if c.Restore {
		return runUniForked(ctx, c, lim, s.Seed, build, fm, proc, ths, h)
	}
	if c.Machine == "ws" {
		// OS-scheduler interference at fixed cycle boundaries. The slice
		// is much shorter than the real scheduler's so short generated
		// programs still see several invocations.
		const slice = 8192
		rng := rand.New(rand.NewSource(experiments.DeriveSeed(s.Seed, 0x05c4ed)))
		inter := osmodel.InterferenceFor(c.Contexts)
		for proc.Now() < lim.MaxCycles && !proc.AllHalted() {
			if _, _, err := proc.RunGuardedCtx(ctx, slice, guard.Options{}); err != nil {
				return nil, nil, 0, err
			}
			if !proc.AllHalted() {
				h.DrainFills(proc.Now())
				h.SchedulerInterference(inter.ILines, inter.DLines, inter.TLBEntries, rng)
			}
		}
	} else {
		if _, _, err := proc.RunGuardedCtx(ctx, lim.MaxCycles, guard.Options{}); err != nil {
			return nil, nil, 0, err
		}
	}
	if !proc.AllHalted() {
		return nil, nil, 0, fmt.Errorf("did not halt within %d cycles", lim.MaxCycles)
	}
	cycles := int64(0)
	for _, th := range ths {
		if th.HaltedAt+1 > cycles {
			cycles = th.HaltedAt + 1
		}
	}
	return fm, ths, cycles, nil
}

// runUniForked is runUni's snapshot-fork path: run to a block boundary
// derived from the program seed, serialize every machine layer through
// the snapshot codec, restore into a freshly built twin machine, and
// finish the run there. The recorder spans both phases, so the cell's
// digest — cycles, switch chain, arch hash — must be indistinguishable
// from its unforked sibling's; any codec bug surfaces as a strict-group
// divergence in the oracle.
func runUniForked(ctx context.Context, c Cell, lim Limits, seed int64,
	build func() (*cache.Hierarchy, *mem.Memory, *core.Processor, []*core.Thread, error),
	fm *mem.Memory, proc *core.Processor, ths []*core.Thread, h *cache.Hierarchy,
) (*mem.Memory, []*core.Thread, int64, error) {
	k := experiments.DeriveSeed(seed, 0xb10c) % 512
	if k < 0 {
		k = -k
	}
	at := 64 * (k + 1)
	if at >= lim.MaxCycles {
		at = 64
	}
	// Phase 1: run the source machine to the boundary. Halting earlier
	// is fine — the codec then round-trips a finished machine.
	if _, _, err := proc.RunGuardedCtx(ctx, at, guard.Options{}); err != nil {
		return nil, nil, 0, err
	}
	w := snapshot.NewWriter()
	for _, th := range ths {
		th.SaveState(w)
	}
	proc.SaveState(w)
	h.SaveState(w)
	fm.SaveState(w)

	h2, fm2, proc2, ths2, err := build()
	if err != nil {
		return nil, nil, 0, err
	}
	r := snapshot.NewReader(w.Bytes())
	for _, th := range ths2 {
		th.RestoreState(r)
	}
	proc2.RestoreState(r)
	h2.RestoreState(r)
	fm2.RestoreState(r)
	if err := snapshot.Finish(r); err != nil {
		return nil, nil, 0, fmt.Errorf("restore at cycle %d: %w", at, err)
	}
	if got, want := proc2.MachineHash(), proc.MachineHash(); got != want {
		return nil, nil, 0, fmt.Errorf("restored machine hash %#x != source %#x at cycle %d", got, want, at)
	}

	// Phase 2: finish on the twin. The remaining budget keeps the total
	// identical to the unforked sibling's single run.
	if _, _, err := proc2.RunGuardedCtx(ctx, lim.MaxCycles-at, guard.Options{}); err != nil {
		return nil, nil, 0, err
	}
	if !proc2.AllHalted() {
		return nil, nil, 0, fmt.Errorf("did not halt within %d cycles", lim.MaxCycles)
	}
	cycles := int64(0)
	for _, th := range ths2 {
		if th.HaltedAt+1 > cycles {
			cycles = th.HaltedAt + 1
		}
	}
	return fm2, ths2, cycles, nil
}

// runMP executes the cell on the lockstep multiprocessor.
func runMP(ctx context.Context, p *prog.Program, s *Spec, c Cell, lim Limits, rec *recorder) (*mem.Memory, []*core.Thread, int64, error) {
	cfg := mp.DefaultConfig(c.Scheme, c.Contexts)
	cfg.Processors = c.Procs
	cfg.LimitCycles = lim.MaxCycles
	cfg.Guard = guard.Options{ChaosSeed: c.Chaos}
	ccfg := core.DefaultConfig(c.Scheme, c.Contexts)
	ccfg.NoFastForward = !c.FF
	cfg.Core = &ccfg
	cfg.SwitchWatch = func(proc *core.Processor, ctx int, now int64) {
		rec.observe(proc.FMem, proc.ThreadAt(ctx), proc.ID, ctx, now)
	}
	res, err := mp.RunCtx(ctx, p, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if !res.Completed {
		reason := "cycle limit"
		if res.Diag != nil {
			reason = res.Diag.Reason
		}
		return nil, nil, 0, fmt.Errorf("did not complete within %d cycles: %s", lim.MaxCycles, reason)
	}
	return res.Mem, res.ThreadState, res.Cycles, nil
}

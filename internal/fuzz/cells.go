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
	"repro/internal/metrics"
	"repro/internal/mp"
	"repro/internal/prog"
	"repro/internal/snapshot"
	"repro/internal/workstation"
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
	// freshly built twin, and finished there. The switch trace and the
	// retirement hashes span both machines, so the oracle compares the
	// forked cell's full digest — cycles, switch trace, retirement hashes,
	// arch hash — strictly against its unforked sibling ("uni" machine
	// only).
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
// same cycle-level schedule, so their cycle counts, switch traces,
// retirement hashes and full register hashes must all match exactly.
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
	// Switches counts context switches: on a timing machine the miss,
	// SWITCH and BACKOFF switches its stats count; on the functional
	// executor the times the ordering changed the running thread.
	// Trace holds a timing machine's first metrics.SwitchTraceCap
	// ctx-switch events per processor, in (cycle, processor) order.
	Switches int64           `json:"switches"`
	Trace    []metrics.Event `json:"-"`
	// Retire holds a timing machine's retirement hash per thread: every
	// retired instruction's index and the value it wrote, so a strict pair
	// that computed a wrong value and later overwrote it still differs.
	Retire []core.RetireHash `json:"-"`
	Err    string            `json:"err,omitempty"`
}

// switchCount is the number of context switches a processor's stats
// record, one per metrics.KindCtxSwitch event it emits.
func switchCount(s core.Stats) int64 { return s.MissSwitches + s.ExplicitSwitches + s.Backoffs }

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
	var m *mem.Memory
	var ths []*core.Thread
	switch c.Machine {
	case "func":
		// Cycles stays 0: the functional executor has no clock, and the
		// oracle never compares cycle counts across machines.
		m, ths, res.Switches, err = funcRun(ctx, p, s.Threads, c.Ordering, lim.MaxSteps)
	case "uni", "ws":
		m, ths, err = runUni(ctx, p, s, c, lim, res)
	case "mp":
		m, ths, err = runMP(ctx, p, c, lim, res)
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
	res.ArchHash = core.ArchHash(res.MemHash, ths)
	return res, nil
}

// runUni executes the cell on a single multiple-context processor with
// the standard cache hierarchy; machine "ws" adds OS-scheduler cache and
// TLB interference at fixed slice boundaries (timing-only effects, so
// fast-forward pairs stay strictly comparable). It sets res's cycles and
// switches.
func runUni(ctx context.Context, p *prog.Program, s *Spec, c Cell, lim Limits, res *CellResult) (*mem.Memory, []*core.Thread, error) {
	// build constructs one complete machine; Restore cells build a
	// second, identical one to restore the checkpoint into. Both record
	// their switches into one sink and their retirements into one set of
	// hashes, so the trace and the hashes span the fork.
	trace := metrics.NewSink(0, metrics.SwitchTraceCap)
	retire := make([]core.RetireHash, c.Contexts)
	build := func() (*workstation.Machine, []*core.Thread, error) {
		ccfg := core.DefaultConfig(c.Scheme, c.Contexts)
		ccfg.NoFastForward = !c.FF
		params := cache.DefaultParams()
		params.Chaos = guard.Options{ChaosSeed: c.Chaos}.NewChaos()
		m, err := workstation.NewMachine(ccfg, params)
		if err != nil {
			return nil, nil, err
		}
		p.LoadInit(m.Memory)
		ths := make([]*core.Thread, c.Contexts)
		for i := range ths {
			ths[i] = core.NewThread(fmt.Sprintf("%s.t%d", p.Name, i), p)
			ths[i].SetIntReg(mp.TidReg, uint32(i))
			ths[i].SetIntReg(mp.NThreadsReg, uint32(c.Contexts))
			ths[i].HashRetirement(&retire[i])
			m.Proc.BindThread(i, ths[i])
		}
		m.Proc.TraceSwitches(trace)
		return m, ths, nil
	}
	m, ths, err := build()
	if err != nil {
		return nil, nil, err
	}
	if c.Restore {
		if m, ths, err = forkUni(ctx, s.Seed, lim, build, m, ths); err != nil {
			return nil, nil, err
		}
	}
	proc, h := m.Proc, m.Hierarchy
	if c.Machine == "ws" {
		// OS-scheduler interference at fixed cycle boundaries. The slice
		// is much shorter than the real scheduler's so short generated
		// programs still see several invocations.
		const slice = 8192
		rng := rand.New(rand.NewSource(experiments.DeriveSeed(s.Seed, 0x05c4ed)))
		inter := workstation.InterferenceFor(c.Contexts)
		for proc.Now() < lim.MaxCycles && !proc.AllHalted() {
			if _, _, err := proc.RunGuardedCtx(ctx, slice, guard.Options{}); err != nil {
				return nil, nil, err
			}
			if !proc.AllHalted() {
				h.DrainFills(proc.Now())
				h.SchedulerInterference(inter.ILines, inter.DLines, inter.TLBEntries, rng)
			}
		}
	} else {
		// A forked twin gets the rest of the budget, so the total matches
		// the unforked sibling's single run.
		if _, _, err := proc.RunGuardedCtx(ctx, lim.MaxCycles-proc.Now(), guard.Options{}); err != nil {
			return nil, nil, err
		}
	}
	if !proc.AllHalted() {
		return nil, nil, fmt.Errorf("did not halt within %d cycles", lim.MaxCycles)
	}
	for _, th := range ths {
		res.Cycles = max(res.Cycles, th.HaltedAt+1)
	}
	res.Switches = switchCount(proc.Stats)
	res.Trace = trace.Events()
	res.Retire = retire
	return m.Memory, ths, nil
}

// forkUni is runUni's snapshot fork: run the source machine to a block
// boundary derived from the program seed, seal it with the workstation
// checkpoint's machine walk (workstation.Machine.State) into a container
// (snapshot.Seal), open it (snapshot.Open) and restore into a freshly
// built twin, which it returns for runUni to finish. This is the
// drivers' checkpoint path, trailer check included. The cell's digest —
// cycles, switch trace, retirement hashes, arch hash — must be
// indistinguishable from its unforked sibling's; any codec bug surfaces
// as a strict-group divergence in the oracle.
func forkUni(ctx context.Context, seed int64, lim Limits,
	build func() (*workstation.Machine, []*core.Thread, error),
	m *workstation.Machine, ths []*core.Thread,
) (*workstation.Machine, []*core.Thread, error) {
	at := forkCycle(seed, lim)
	// Run the source machine to the boundary. Halting earlier is fine —
	// the codec then round-trips a finished machine.
	if _, _, err := m.Proc.RunGuardedCtx(ctx, at, guard.Options{}); err != nil {
		return nil, nil, err
	}
	data := snapshot.Seal(workstation.Kind, "", func(c snapshot.Codec) { m.State(c, ths) })
	img, err := snapshot.Open(data, workstation.Kind, "")
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint at cycle %d: %w", at, err)
	}

	m2, ths2, err := build()
	if err != nil {
		return nil, nil, err
	}
	r := img.Reader()
	m2.State(snapshot.Restoring(r), ths2)
	if err := snapshot.Finish(r); err != nil {
		return nil, nil, fmt.Errorf("restore at cycle %d: %w", at, err)
	}
	if got, want := m2.Proc.MachineHash(), m.Proc.MachineHash(); got != want {
		return nil, nil, fmt.Errorf("restored machine hash %#x != source %#x at cycle %d", got, want, at)
	}
	return m2, ths2, nil
}

// forkCycle is the block boundary a Restore cell forks at: one of the
// first 16, drawn from the program seed. Generated programs run for a
// few thousand cycles, so the fork lands mid-run, with misses in flight
// and contexts waiting on them.
func forkCycle(seed int64, lim Limits) int64 {
	k := experiments.DeriveSeed(seed, 0xb10c) % 16
	if k < 0 {
		k = -k
	}
	at := 64 * (k + 1)
	if at >= lim.MaxCycles {
		at = 64
	}
	return at
}

// runMP executes the cell on the lockstep multiprocessor and sets res's
// cycles and switches.
func runMP(ctx context.Context, p *prog.Program, c Cell, lim Limits, res *CellResult) (*mem.Memory, []*core.Thread, error) {
	cfg := mp.DefaultConfig(c.Scheme, c.Contexts)
	cfg.Processors = c.Procs
	cfg.LimitCycles = lim.MaxCycles
	cfg.Guard = guard.Options{ChaosSeed: c.Chaos}
	ccfg := core.DefaultConfig(c.Scheme, c.Contexts)
	ccfg.NoFastForward = !c.FF
	cfg.Core = &ccfg
	cfg.SwitchTrace = true
	cfg.Retire = make([]core.RetireHash, c.Procs*c.Contexts)
	r, err := mp.RunCtx(ctx, p, cfg)
	if err != nil {
		return nil, nil, err
	}
	if !r.Completed {
		reason := "cycle limit"
		if r.Diag != nil {
			reason = r.Diag.Reason
		}
		return nil, nil, fmt.Errorf("did not complete within %d cycles: %s", lim.MaxCycles, reason)
	}
	res.Cycles = r.Cycles
	res.Switches = switchCount(r.Stats)
	res.Trace = r.Metrics.Events
	res.Retire = cfg.Retire
	return r.Mem, r.ThreadState, nil
}

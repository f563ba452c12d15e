// Package mp simulates the paper's multiprocessor (§5.2): N nodes, each a
// multiple-context processor with a private coherent data cache, stepped
// in lockstep over the shared directory fabric. Applications are SPMD
// programs whose threads receive their id and thread count in registers.
package mp

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// Registers through which SPMD kernels receive their identity.
const (
	// TidReg holds the thread id (0-based).
	TidReg = isa.R4
	// NThreadsReg holds the total thread count.
	NThreadsReg = isa.R5
)

// Config parameterizes a multiprocessor run.
type Config struct {
	Processors int
	Scheme     core.Scheme
	Contexts   int // hardware contexts per processor

	Coherence coherence.Params
	// Core, if non-nil, overrides the derived per-processor core config.
	Core *core.Config

	// LimitCycles bounds the run; exceeded means Result.Completed false.
	LimitCycles int64

	// Guard is the hardening configuration: watchdog, invariant checking,
	// fault injection. The zero value arms the watchdog at the default
	// policy (LimitCycles/20) with everything else off.
	Guard guard.Options

	// Obs configures the observability layer (counter sampling and the
	// structured event trace); the zero value disables it entirely.
	Obs metrics.Options

	// SwitchWatch, if set, observes every context switch on every
	// processor: the processor whose context is switching away, the
	// context index, and the cycle. The lockstep driver steps processors
	// in (cycle, processor index) order, so the callback sequence is
	// deterministic for a given program and config. Used by differential
	// testing to hash architectural state at switch points.
	SwitchWatch func(p *core.Processor, ctx int, now int64)
}

// DefaultConfig returns the paper's 8-node multiprocessor with the given
// scheme and context count.
func DefaultConfig(s core.Scheme, contexts int) Config {
	return Config{
		Processors:  8,
		Scheme:      s,
		Contexts:    contexts,
		Coherence:   coherence.DefaultParams(),
		LimitCycles: 50_000_000,
	}
}

// Result reports a completed run.
type Result struct {
	Cycles    int64 // execution time: the cycle the last thread halted
	Completed bool
	// Diag is the machine-state dump taken at the cycle limit when the run
	// did not complete, so grid drivers can report where an over-budget
	// cell was wedged — not just that it ran long. Nil on completed runs.
	Diag    *guard.Diagnostic
	Stats   core.Stats   // aggregate over processors
	PerProc []core.Stats // per-processor breakdowns
	Threads int
	// Mem is the final shared functional memory, for checking results.
	Mem *mem.Memory
	// MemHash digests the final shared memory alone. For every data-race-
	// free program it is byte-identical across chaos perturbations: timing
	// faults must never leak into memory results. (Apps marked Racy, like
	// mp3d's unsynchronized cell scatter, are exempt by construction.)
	MemHash uint64
	// ArchHash additionally folds in every thread's registers, PC and halt
	// state — the strictest identity. Spin-loop scratch registers (backoff
	// counters, last-observed lock words) are legitimately timing-dependent
	// in lock-based apps, so chaos tests assert ArchHash only on workloads
	// whose final register state is deterministic.
	ArchHash uint64
	// Metrics is the observability record, nil unless Config.Obs enables
	// instrumentation.
	Metrics *metrics.CellMetrics
	// ThreadState exposes the final per-thread architectural state in tid
	// order, for oracles that need finer-grained digests than ArchHash
	// (e.g. register hashes that exclude spin-loop scratch registers).
	ThreadState []*core.Thread
}

// Run executes program p as an SPMD application with Processors×Contexts
// threads. The program's initial data is loaded once into the shared
// functional memory; every thread starts at instruction 0 with TidReg and
// NThreadsReg set.
func Run(p *prog.Program, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), p, cfg)
}

// RunCtx is Run with cooperative cancellation: when ctx can be canceled
// the lockstep driver additionally polls ctx.Done() at its existing
// 64-cycle block boundaries, so a first-error cancel or a SIGINT/SIGTERM
// drain stops the machine within one block instead of after LimitCycles.
// The canceled run returns a guard.OpCanceled SimError wrapping
// ctx.Err(); a background/detached context (Done() == nil) skips the
// poll entirely, leaving the hot loop's cost and the fast-forward
// goldens untouched.
func RunCtx(ctx context.Context, p *prog.Program, cfg Config) (*Result, error) {
	m, err := newMachine(p, cfg)
	if err != nil {
		return nil, err
	}
	completed, err := m.runBlocks(ctx, 0, cfg.LimitCycles)
	if err != nil {
		return nil, err
	}
	return m.result(completed), nil
}

// procRunner is the per-processor driver state: until is the horizon the
// last Advance reported (zero forces a first call), (cls, ctx) the charge
// for the processor's current boring region. The caches are
// derived state — at a block boundary every processor is settled to the
// boundary cycle and a recompute yields the identical classification —
// so checkpoints drop them.
type procRunner struct {
	proc  *core.Processor
	until int64
	cls   core.SlotClass
	ctx   int
}

// machine is one fully constructed multiprocessor plus the lockstep
// driver's bookkeeping. RunCtx drives it from cycle 0 to completion; the
// checkpoint entry points (snapshot.go) drive the same block loop in two
// halves.
type machine struct {
	cfg  Config
	ccfg core.Config

	fab     *coherence.Fabric
	fm      *mem.Memory
	procs   []*core.Processor
	threads []*core.Thread

	col *metrics.Collector
	// eng is the shared block-stepping engine (internal/engine): it owns
	// the lockstep block loop — halt checks, watchdog observations,
	// invariant checks, cancellation polls and cell samples at 64-cycle
	// block boundaries — while this driver supplies the per-block
	// advancer and the diagnostic hooks.
	eng *engine.Engine

	runners []procRunner
}

func newMachine(p *prog.Program, cfg Config) (*machine, error) {
	if cfg.Processors < 1 {
		return nil, fmt.Errorf("mp: need at least one processor")
	}
	if cfg.Contexts < 1 {
		return nil, fmt.Errorf("mp: need at least one context per processor")
	}
	ccfg := core.DefaultConfig(cfg.Scheme, cfg.Contexts)
	if cfg.Core != nil {
		if err := cfg.Core.CheckOverride(cfg.Scheme, cfg.Contexts); err != nil {
			return nil, fmt.Errorf("mp: %w", err)
		}
		ccfg = *cfg.Core
	}
	if cfg.Coherence.Chaos == nil {
		cfg.Coherence.Chaos = cfg.Guard.NewChaos()
	}
	fab, err := coherence.NewFabric(cfg.Coherence, cfg.Processors)
	if err != nil {
		return nil, err
	}

	fm := mem.New()
	p.LoadInit(fm)

	m := &machine{cfg: cfg, ccfg: ccfg, fab: fab, fm: fm}

	nThreads := cfg.Processors * cfg.Contexts
	m.procs = make([]*core.Processor, cfg.Processors)
	m.col = metrics.NewCollector(cfg.Obs, cfg.Processors)
	for i := range m.procs {
		proc, err := core.NewProcessor(ccfg, fab.Node(i), fm)
		if err != nil {
			return nil, err
		}
		proc.ID = i
		m.procs[i] = proc
		if watch := cfg.SwitchWatch; watch != nil {
			self := proc
			proc.SwitchWatch = func(now int64, ctx int) { watch(self, ctx, now) }
		}
		proc.AttachMetrics(m.col.Proc(i))
		fab.Node(i).AttachMetrics(m.col.Proc(i))
		for c := 0; c < cfg.Contexts; c++ {
			tid := i*cfg.Contexts + c
			th := core.NewThread(fmt.Sprintf("%s.t%d", p.Name, tid), p)
			th.SetIntReg(TidReg, uint32(tid))
			th.SetIntReg(NThreadsReg, uint32(nThreads))
			proc.BindThread(c, th)
			m.threads = append(m.threads, th)
		}
	}

	// Hardening: the watchdog defaults to engine.DefaultWatchdogWindow
	// (LimitCycles/20, floored at a minimum window) — a wedged run is
	// reported within 5% of its cycle budget, with a diagnostic, instead
	// of silently burning the remaining 95% and returning
	// Completed=false.
	m.eng = &engine.Engine{
		Halted:     m.allHalted,
		HaltEvery:  engine.BlockCycles,
		Watchdog:   guard.NewWatchdog(cfg.Guard.ResolveWatchdog(engine.DefaultWatchdogWindow(cfg.LimitCycles))),
		Progress:   m.progress,
		GuardEvery: cfg.Guard.CheckCadence(),
		Describe:   m.describe,
		OnCancel: func(now int64) {
			if pm := m.col.Proc(0); pm != nil && pm.Sink != nil {
				pm.Sink.Emit(metrics.Event{Cycle: now, Kind: metrics.KindDrain, Ctx: -1})
			}
		},
	}
	if cfg.Guard.InvariantsOn() {
		for _, proc := range m.procs {
			m.eng.Checkers = append(m.eng.Checkers, proc)
		}
		m.eng.Checkers = append(m.eng.Checkers, m.fab)
	}

	// Cell-scope observability: counters mutated across processors must not
	// be sampled from inside any one processor's timeline — under fast-
	// forward a node's invalidation count at an intermediate cycle depends
	// on how far the OTHER processors have advanced within the block. They
	// are sampled here instead, at block boundaries, where advanceBlock has
	// settled every processor to exactly the same cycle in both run modes.
	// The cadence is the configured period rounded up to a whole block.
	if m.col != nil {
		cellReg := m.col.CellRegistry()
		for i := 0; i < cfg.Processors; i++ {
			cellReg.Register(fmt.Sprintf("node%d/invalidations", i), &fab.Node(i).Stats.Invalidations)
		}
		if ch := cfg.Coherence.Chaos; ch != nil {
			cellReg.Register("chaos/draws", &ch.Draws)
		}
		cellReg.Register("watchdog/arms", &m.eng.Arms)
		cellReg.Register("watchdog/trips", &m.eng.Trips)
		if every := m.col.SampleEvery(); every > 0 {
			cellEvery := (every + engine.BlockCycles - 1) / engine.BlockCycles * engine.BlockCycles
			m.col.SetCellCadence(cellEvery)
			m.eng.Sample = m.col.SampleCell
			m.eng.SampleEvery = cellEvery
		}
	}

	// Per-processor driver state lives in one struct so the hot loop walks
	// a single contiguous slice.
	m.runners = make([]procRunner, len(m.procs))
	for i, proc := range m.procs {
		m.runners[i].proc = proc
	}

	// A single scan per global cycle both classifies and steps, walking
	// processors in index order, one core.Processor.Advance per processor
	// due to act. The lockstep driver exploits a property of the
	// fast-forward engine's boring regions: the region a processor's last
	// Advance reported stays valid while OTHER processors execute, because
	// cross-processor traffic mutates only coherence-node state, which
	// reaches a core exclusively through its own accesses — and a boring
	// processor makes none. So a stalled processor is simply left lagging
	// behind the global clock and caught up with a single bulk charge when
	// its event arrives (or at the block boundary), costing O(1) per stall
	// region instead of O(cycles). Processors due to act are stepped in
	// index order at the global cycle, exactly as in full lockstep. The
	// 64-cycle block structure is kept so halt checks and watchdog
	// observations happen at exactly the same cycles as cycle-by-cycle
	// stepping, making fast-forward ON vs OFF results byte-identical.
	//
	// Stepping processor j before classifying processor i > j is safe on a
	// pull-based memory system (the only kind the fabric is): Advance's
	// classification reads purely processor-local state, and
	// cross-processor traffic reaches a core only through its own
	// accesses, so the classification is independent of its position
	// relative to other processors' steps in the same cycle — while the
	// steps themselves retain the lockstep (cycle, processor index) order.
	//
	// The block advancer comes in two copies selected once per run, NOT as
	// one copy with per-skip `if observed` branches: this loop is the
	// hottest code in the multiprocessor simulator, and even a perfectly
	// predicted dispatch branch at the two skip sites costs measurable
	// throughput (it also pressures the inlining of SkipTo, which is
	// budgeted to inline here — see core.SkipTo's contract). The copies
	// must stay structurally identical; the observed one only swaps
	// SkipTo for ObservedSkipTo so skipped regions land in the event
	// trace and counter series. The MP fast-forward golden tests compare
	// the two modes byte-for-byte and catch any drift between the copies.
	runners := m.runners
	advancePlain := func(start, end int64) {
		for now := start; now < end; {
			target := end
			stepped := false
			for i := range runners {
				r := &runners[i]
				if r.until <= now {
					// Settle any lag [proc clock, now) in one skip; the
					// cached (cls, ctx) charge is constant over the whole
					// boring region.
					if r.proc.Now() < now {
						r.proc.SkipTo(now, r.cls, r.ctx)
					}
					r.cls, r.ctx, r.until = r.proc.Advance()
					if r.until <= now {
						// Real work was done this cycle; the stale until
						// forces a fresh classification next cycle.
						stepped = true
						continue
					}
				}
				if r.until < target {
					target = r.until
				}
			}
			if stepped {
				now++
				continue
			}
			// Everyone is boring until target: jump the clock. The lagging
			// processors are not advanced here — their regions may extend
			// past target, and the catch-up charges the whole span at once.
			now = target
		}
		for i := range runners {
			r := &runners[i]
			if r.proc.Now() < end {
				r.proc.SkipTo(end, r.cls, r.ctx)
			}
		}
	}
	advanceObserved := func(start, end int64) {
		for now := start; now < end; {
			target := end
			stepped := false
			for i := range runners {
				r := &runners[i]
				if r.until <= now {
					if r.proc.Now() < now {
						r.proc.ObservedSkipTo(now, r.cls, r.ctx)
					}
					r.cls, r.ctx, r.until = r.proc.Advance()
					if r.until <= now {
						stepped = true
						continue
					}
				}
				if r.until < target {
					target = r.until
				}
			}
			if stepped {
				now++
				continue
			}
			now = target
		}
		for i := range runners {
			r := &runners[i]
			if r.proc.Now() < end {
				r.proc.ObservedSkipTo(end, r.cls, r.ctx)
			}
		}
	}
	adv := advancePlain
	if m.col != nil {
		adv = advanceObserved
	}
	// Lockstep blocks always run to a full boundary (HaltEvery), so the
	// advancer settles every processor at exactly target in both run
	// modes.
	m.eng.Advance = func(now, target int64) int64 {
		adv(now, target)
		return target
	}
	return m, nil
}

// allHalted reports whether every thread on every processor has halted —
// the engine's per-block halt check.
func (m *machine) allHalted() bool {
	for _, proc := range m.procs {
		if !proc.AllHalted() {
			return false
		}
	}
	return true
}

// progress feeds the engine's watchdog: machine-wide useful issue slots.
func (m *machine) progress() int64 {
	var p int64
	for _, proc := range m.procs {
		p += proc.UsefulProgress()
	}
	return p
}

// runBlocks drives lockstep blocks from cycle start (a block boundary)
// until the machine halts or cycle limit is reached, returning whether
// every thread halted. Cycle indices are absolute, so a run resumed from
// a checkpoint observes the watchdog, samples cells and polls
// cancellation at the exact cycles the uninterrupted run would.
//
// The loop itself is the shared engine: cancellation is observed between
// blocks — one nil test per 64 simulated cycles when detached, never
// inside the advancers — so the hot loop stays branch-free per cycle and
// a canceled cell stops within one block of the cancellation.
func (m *machine) runBlocks(ctx context.Context, start, limit int64) (bool, error) {
	return m.eng.Run(ctx, start, limit)
}

// result assembles the Result after the final block.
func (m *machine) result(completed bool) *Result {
	res := &Result{
		Completed:   completed,
		Threads:     m.cfg.Processors * m.cfg.Contexts,
		Mem:         m.fm,
		ThreadState: m.threads,
	}
	if !completed {
		res.Diag = m.budgetDiagnostic()
	}
	res.MemHash = m.fm.Hash()
	res.ArchHash = res.MemHash
	for _, th := range m.threads {
		res.ArchHash = th.HashArchState(res.ArchHash)
	}
	for _, th := range m.threads {
		if th.HaltedAt+1 > res.Cycles {
			res.Cycles = th.HaltedAt + 1
		}
	}
	for _, proc := range m.procs {
		res.PerProc = append(res.PerProc, proc.Stats)
		res.Stats.Add(&proc.Stats)
	}
	res.Metrics = m.col.Result()
	return res
}

// machineHash digests the whole multiprocessor — every processor's
// per-layer hash plus the shared coherence fabric (caches, directory,
// pending misses) — into one diagnostic digest.
func machineHash(procs []*core.Processor, fab *coherence.Fabric) uint64 {
	layers := make([]uint64, 0, len(procs)+1)
	for _, proc := range procs {
		layers = append(layers, proc.MachineHash())
	}
	layers = append(layers, fab.Hash())
	return guard.MachineHash(layers...)
}

// budgetDiagnostic assembles the same machine-state dump as a watchdog
// trip for a run that exhausted LimitCycles while still making progress.
func (m *machine) budgetDiagnostic() *guard.Diagnostic {
	d := &guard.Diagnostic{
		Reason: fmt.Sprintf("cycle budget: %d cycles elapsed before all threads halted", m.cfg.LimitCycles),
		Cycle:  m.cfg.LimitCycles,
	}
	m.fillDiag(d)
	return d
}

// describe fills the driver-specific fields of the engine's watchdog
// trip report: every processor's per-context position, the directory
// state of the lines with transactions in flight, and the
// deadlock-vs-livelock note.
func (m *machine) describe(d *guard.Diagnostic) {
	m.fillDiag(d)
	if len(d.Lines) == 0 {
		// Distinguishes software deadlock from protocol livelock: spinning
		// on a held lock hits the local cache, so nothing is in flight.
		d.Notes = append(d.Notes,
			"no directory transactions in flight: contexts are spinning on locally cached data (software deadlock), not stuck in the protocol")
	}
}

// fillDiag adds the machine-state dump shared by every mp diagnostic.
func (m *machine) fillDiag(d *guard.Diagnostic) {
	d.Scheme = m.cfg.Scheme.String()
	d.Lines = m.fab.HotLines(16)
	d.MachineHash = machineHash(m.procs, m.fab)
	for _, proc := range m.procs {
		d.Procs = append(d.Procs, proc.Snapshot())
	}
}

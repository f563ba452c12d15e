// Package workstation simulates the paper's uniprocessor environment
// (§4-5.1): one multiple-context processor with the Table 1/2 cache
// hierarchy, running a multiprogrammed workload of four applications under
// the time-slicing, affinity-scheduling OS model. It produces the
// utilization breakdowns of Figures 6-7 and the throughput numbers of
// Table 7.
package workstation

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/osmodel"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// MeasureOverrides replace individual machine parameters at the instant
// measurement starts (the warm-up/measure boundary). Sensitivity sweeps
// that vary a parameter with no effect on what warm-up should look like
// set it here instead of in the base configuration: every cell of the
// sweep then shares an identical warm-up prefix, which the checkpointing
// planner simulates once and forks per cell. The override is applied at
// the same loop position in from-scratch and forked runs, so the two are
// byte-identical by construction.
type MeasureOverrides struct {
	// BlockedFlushCost, if positive, replaces the blocked scheme's
	// context-switch flush cost when measurement starts (the switch-cost
	// sensitivity sweep).
	BlockedFlushCost int
	// MSHRs, if positive, replaces the hierarchy's outstanding-miss
	// register count when measurement starts (the MSHR sweep).
	MSHRs int
}

// Config parameterizes one workstation run.
type Config struct {
	Scheme   core.Scheme
	Contexts int

	OS    osmodel.Params
	Cache cache.Params
	// Core, if non-zero, overrides the derived core configuration.
	Core *core.Config
	// YieldOverride, if non-nil, overrides the latency-tolerance
	// compilation mode derived from the scheme (used by ablations, e.g.
	// running the interleaved pipeline on code without backoffs).
	YieldOverride *prog.YieldMode

	// WarmupRotations and MeasureRotations are in full scheduler
	// rotations (every application runs AffinitySlices slices per
	// rotation). The paper warms one slice per application and measures
	// 36 slices; the defaults here are 1 and 1 (12 slices with four
	// applications), scaled with the slice length.
	WarmupRotations  int
	MeasureRotations int

	// Measure holds parameter overrides applied when measurement starts;
	// the zero value applies none. See MeasureOverrides.
	Measure MeasureOverrides

	// AppScale is passed to kernels as their work multiplier.
	AppScale int

	Seed int64

	// Guard is the hardening configuration. The workstation's watchdog
	// default is off — a run is a fixed number of slices, so it cannot
	// hang — but an explicit window catches workloads that stop retiring
	// useful work (all applications wedged on sync or trap loops).
	Guard guard.Options

	// Obs configures the observability layer (counter sampling and the
	// structured event trace); the zero value disables it entirely.
	Obs metrics.Options
}

// DefaultConfig returns the paper's workstation with the given scheme and
// context count.
func DefaultConfig(s core.Scheme, contexts int) Config {
	return Config{
		Scheme:           s,
		Contexts:         contexts,
		OS:               osmodel.DefaultParams(),
		Cache:            cache.DefaultParams(),
		WarmupRotations:  1,
		MeasureRotations: 1,
		Seed:             1,
	}
}

// YieldModeFor is core.Scheme.YieldMode under the name older callers use.
func YieldModeFor(s core.Scheme) prog.YieldMode { return s.YieldMode() }

// AppResult reports one application's progress over the measured window.
type AppResult struct {
	Name    string
	Retired int64
	Devoted int64 // processor cycles attributed to the application
}

// Result is the outcome of a workstation run.
type Result struct {
	Stats core.Stats
	Apps  []AppResult
	// Throughput is the raw processor busy fraction over the measured
	// window — the quantity atop the bars of Figures 6 and 7.
	Throughput float64
	// FairThroughput is the fairness-normalized aggregate instruction
	// rate. The paper observes that both schemes skew processor cycles
	// toward applications with longer runlengths and therefore assumes
	// OS feedback scheduling that "evens out the amount of processor
	// cycles devoted to each application", normalizing "to the case
	// where each application out of n is given 1/n of the processor"
	// (§5.1). With every cycle attributed to the application that used
	// or caused it (core.Thread.Devoted), giving each application C/n
	// cycles yields
	//
	//	(1/n) · Σᵢ retiredᵢ/devotedᵢ
	//
	// instructions per cycle, which is what Table 7's throughput ratios
	// are computed from.
	FairThroughput float64
	// Metrics is the observability record, nil unless Config.Obs enables
	// instrumentation.
	Metrics *metrics.CellMetrics
}

// Gain returns this run's fairness-normalized throughput relative to a
// baseline run (Table 7's metric).
func (r *Result) Gain(base *Result) float64 {
	if base == nil || base.FairThroughput <= 0 {
		return 0
	}
	return r.FairThroughput / base.FairThroughput
}

// Run simulates the kernels as a multiprogrammed workload under cfg.
func Run(kernels []apps.Kernel, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), kernels, cfg)
}

// RunCtx is Run with cooperative cancellation: when ctx can be canceled
// the slice driver additionally polls ctx.Done() every
// engine.BlockCycles (64) cycles, so a first-error cancel or a
// SIGINT/SIGTERM drain stops the simulation within one block instead of
// after the remaining slices. The canceled run returns a
// guard.OpCanceled SimError wrapping ctx.Err(); a background/detached
// context (Done() == nil) takes exactly the pre-cancellation code path,
// keeping the fast-forward goldens byte-identical.
func RunCtx(ctx context.Context, kernels []apps.Kernel, cfg Config) (*Result, error) {
	r, err := newRunner(kernels, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.runSlices(ctx, 0, r.totalSlices); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// runner is one fully constructed workstation machine plus the slice
// driver's bookkeeping. RunCtx drives it from slice 0 to the end; the
// checkpoint entry points (snapshot.go) drive the same loop in two
// halves, pausing at a slice boundary to serialize or restore, so a
// forked run replays the measure phase through the identical code path.
type runner struct {
	cfg  Config
	ccfg core.Config

	fm   *mem.Memory
	h    *cache.Hierarchy
	proc *core.Processor

	col          *metrics.Collector
	eng          *engine.Engine
	threads      []*core.Thread
	groups       [][]*core.Thread
	groupPeriod  int // slices per group
	rotation     int // slices per full rotation
	totalSlices  int
	warmupSlices int
	rng          *rand.Rand
	rngSrc       *snapshot.CountingSource
	measureStart []int64
	devotedStart []int64
}

func newRunner(kernels []apps.Kernel, cfg Config) (*runner, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("workstation: empty workload")
	}
	if cfg.Contexts < 1 {
		return nil, fmt.Errorf("workstation: need at least one context")
	}
	ccfg := core.DefaultConfig(cfg.Scheme, cfg.Contexts)
	if cfg.Core != nil {
		if err := cfg.Core.CheckOverride(cfg.Scheme, cfg.Contexts); err != nil {
			return nil, fmt.Errorf("workstation: %w", err)
		}
		ccfg = *cfg.Core
	}

	if cfg.Cache.Chaos == nil {
		cfg.Cache.Chaos = cfg.Guard.NewChaos()
	}
	fm := mem.New()
	h, err := cache.NewHierarchy(cfg.Cache)
	if err != nil {
		return nil, err
	}
	proc, err := core.NewProcessor(ccfg, h, fm)
	if err != nil {
		return nil, err
	}

	r := &runner{cfg: cfg, ccfg: ccfg, fm: fm, h: h, proc: proc}

	// The block-stepping engine drives every slice: proc.Run over the
	// coalesced span (a single call per slice when detached and
	// unguarded), the watchdog and invariant checkers at guard-cadence
	// boundaries, the cancellation poll every engine.BlockCycles. The
	// workstation machine cannot halt — a run is a fixed number of
	// slices — so Halted stays nil, and guard cadences restart at each
	// slice boundary via GuardAtEnd, which keeps slice boundaries valid
	// snapshot points.
	r.eng = &engine.Engine{
		Advance: func(now, target int64) int64 {
			proc.Run(target - now)
			return target
		},
		Watchdog:   guard.NewWatchdog(cfg.Guard.ResolveWatchdog(0)),
		Progress:   proc.UsefulProgress,
		GuardEvery: cfg.Guard.CheckCadence(),
		GuardAtEnd: true,
		Describe: func(d *guard.Diagnostic) {
			d.Scheme = cfg.Scheme.String()
			d.Procs = []guard.ProcState{proc.Snapshot()}
			d.MachineHash = proc.MachineHash()
		},
		OnCancel: func(now int64) {
			if pm := r.col.Proc(0); pm != nil && pm.Sink != nil {
				pm.Sink.Emit(metrics.Event{Cycle: now, Kind: metrics.KindDrain, Ctx: -1})
			}
		},
	}
	if cfg.Guard.InvariantsOn() {
		r.eng.Checkers = []guard.InvariantChecker{proc, h}
	}

	// Observability: on a single processor every counter is proc-scope.
	// The watchdog and chaos counters mutate only at guard-chunk and slice
	// boundaries, which fall at identical cycles whether the core steps or
	// fast-forwards, so sampling them from the processor's timeline is
	// mode-independent.
	r.col = metrics.NewCollector(cfg.Obs, 1)
	if pm := r.col.Proc(0); pm != nil {
		proc.AttachMetrics(pm)
		h.AttachMetrics(pm)
		pm.Reg.Register("watchdog/arms", &r.eng.Arms)
		pm.Reg.Register("watchdog/trips", &r.eng.Trips)
		if ch := cfg.Cache.Chaos; ch != nil {
			pm.Reg.Register("chaos/draws", &ch.Draws)
		}
	}

	// Build one process per kernel, each in its own code and data region
	// (regions collide in the caches — that is the point).
	yield := cfg.Scheme.YieldMode()
	if cfg.YieldOverride != nil {
		yield = *cfg.YieldOverride
	}
	r.threads = make([]*core.Thread, len(kernels))
	for i, k := range kernels {
		// Bases are staggered within the 64 KB cache-index range so the
		// processes do not all alias to the same direct-mapped sets (as
		// real loaders stagger them); they still conflict where their
		// footprints overlap.
		p := k.Program(apps.Options{
			CodeBase:     0x0100_0000*uint32(i+1) + 0x4800*uint32(i),
			DataBase:     0x4000_0000 + 0x0200_0000*uint32(i) + 0x3800*uint32(i),
			Yield:        yield,
			AutoTolerate: yield != prog.YieldNone,
			Scale:        cfg.AppScale,
		})
		p.LoadInit(fm)
		r.threads[i] = core.NewThread(fmt.Sprintf("%s.%d", k.Name, i), p)
	}

	// Scheduling groups of |contexts| applications.
	for i := 0; i < len(r.threads); i += cfg.Contexts {
		end := i + cfg.Contexts
		if end > len(r.threads) {
			end = len(r.threads)
		}
		r.groups = append(r.groups, r.threads[i:end])
	}
	r.groupPeriod = cfg.OS.AffinitySlices * cfg.Contexts
	r.rotation = len(r.groups) * r.groupPeriod
	r.totalSlices = (cfg.WarmupRotations + cfg.MeasureRotations) * r.rotation
	r.warmupSlices = cfg.WarmupRotations * r.rotation

	// The scheduler-interference stream draws through a counting source
	// so a checkpoint records the stream position; the wrapper forwards
	// the raw Int63 values untouched and the stream is unchanged.
	r.rngSrc = snapshot.NewCountingSource(cfg.Seed)
	r.rng = rand.New(r.rngSrc)

	r.measureStart = make([]int64, len(r.threads))
	r.devotedStart = make([]int64, len(r.threads))
	return r, nil
}

// bind places a scheduling group onto the processor's context slots.
func (r *runner) bind(g []*core.Thread) {
	for c := 0; c < r.cfg.Contexts; c++ {
		if c < len(g) {
			r.proc.BindThread(c, g[c])
		} else {
			r.proc.BindThread(c, nil)
		}
	}
}

// runSlices drives slices [from, to). Slice indices are absolute, so a
// resumed run entering at the checkpoint slice executes the exact
// scheduler binds, interference draws, and measure-boundary actions the
// uninterrupted run would.
func (r *runner) runSlices(ctx context.Context, from, to int) error {
	cfg := r.cfg
	proc, h := r.proc, r.h

	// Each slice is one engine span: proc.Run over coalesced chunks (a
	// single call when detached and unguarded — the exact
	// pre-cancellation path), the watchdog and invariant checkers at
	// guard-cadence boundaries, a ctx poll every engine.BlockCycles.
	// Chunked runs are cycle-exact (Run(n) is n Step calls, pinned by
	// the fast-forward goldens), so neither hardening nor an
	// attached-but-never-canceled context perturbs results.
	runSlice := func() error {
		start := proc.Now()
		_, err := r.eng.Run(ctx, start, start+int64(cfg.OS.SliceCycles))
		return err
	}

	for slice := from; slice < to; slice++ {
		// Scheduler invocation at every slice boundary; process switches
		// only at group boundaries (affinity).
		switched := 0
		if slice%r.groupPeriod == 0 {
			g := r.groups[(slice/r.groupPeriod)%len(r.groups)]
			if len(r.groups) > 1 || slice == 0 {
				r.bind(g)
				if len(r.groups) > 1 {
					switched = cfg.Contexts
				}
			}
		}
		inter := osmodel.InterferenceFor(switched)
		h.DrainFills(proc.Now())
		h.SchedulerInterference(inter.ILines, inter.DLines, inter.TLBEntries, r.rng)

		if slice == r.warmupSlices {
			// Measurement starts here: apply the measure-phase parameter
			// overrides, then zero the issue-slot accounting. Forked runs
			// enter the loop at exactly this slice, so scratch and forked
			// cells apply the overrides at the same instant.
			if v := cfg.Measure.BlockedFlushCost; v > 0 {
				proc.Cfg.BlockedFlushCost = v
			}
			if v := cfg.Measure.MSHRs; v > 0 {
				h.P.MSHRs = v
			}
			proc.Stats = core.Stats{}
			for i, th := range r.threads {
				r.measureStart[i] = th.Retired
				r.devotedStart[i] = th.Devoted
			}
		}
		if err := runSlice(); err != nil {
			return err
		}
	}
	return nil
}

// result assembles the Result after the final slice.
func (r *runner) result() *Result {
	res := &Result{Stats: r.proc.Stats}
	res.Throughput = r.proc.Stats.BusyFraction()
	// Devoted counts issue slots; convert per-slot efficiency back to
	// instructions per cycle for superscalar configurations.
	width := 1.0
	if r.ccfg.IssueWidth > 1 {
		width = float64(r.ccfg.IssueWidth)
	}
	var effSum float64
	for i, th := range r.threads {
		retired := th.Retired - r.measureStart[i]
		devoted := th.Devoted - r.devotedStart[i]
		res.Apps = append(res.Apps, AppResult{Name: th.Name, Retired: retired, Devoted: devoted})
		if devoted > 0 {
			effSum += float64(retired) / float64(devoted) * width
		}
	}
	res.FairThroughput = effSum / float64(len(r.threads))
	res.Metrics = r.col.Result()
	return res
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mp"
	"repro/internal/prog"
	"repro/internal/splash"
	"repro/internal/workstation"
)

// cellOut is one operation of a pass: one grid cell, sweep point or
// kernel run, with the bytes the identity check compares.
type cellOut struct {
	name   string
	kind   string // "ws", "mp", "uni" or "sweep"
	digest string // canonical encoding of the cell's record
	ok     bool   // completed; not failed, skipped or over budget
	stats  core.Stats
	cycles int64 // nominal simulated cycles (fixed by configuration)
	nodes  int   // processors the cell simulates
	obs    *metrics.CellMetrics
}

// passOut is everything one pass produces.
type passOut struct {
	cells []cellOut
	text  string // rendered tables, compared byte for byte
}

func (o *passOut) nominalCycles() int64 {
	var n int64
	for _, c := range o.cells {
		n += c.cycles
	}
	return n
}

// extraCtx is what a workload's traced-run extras see: the reference
// pass, the duration of the untraced timed pass, and the metric set to
// add to.
type extraCtx struct {
	ref  *passOut
	base time.Duration
	out  map[string]float64
}

// A workload is one set of inputs. pass runs every cell once, serially,
// on the calling goroutine (the service workload's worker excepted: one
// worker, one slot); it is the closed loop's single client. extras runs
// only in the traced run and adds the per-layer metrics that need a
// variant of the pass (observability on, forking off, invariants on).
type workload struct {
	pass   func(m *meter) (*passOut, error)
	extras func(x *extraCtx) error
	// programs builds every program the passes' cells build, once.
	programs func()
	// close, when set, stops what set-up started.
	close func()
	// reference, when set, is the expected output; otherwise the cold
	// pass's output is.
	reference *passOut
}

// runCtx is the context every simulation call gets. It is cancelable,
// like the one every command of the repository derives from its signal
// handler, so the drivers take the path users run: spans clamped to
// 64-cycle blocks with a cancellation poll at each.
var runCtx, cancelRun = context.WithCancel(context.Background())

func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// uniNominal is the simulated length of one workstation cell, fixed by
// configuration: (warm-up + measure rotations) × slices per rotation ×
// cycles per slice. A rotation gives every scheduling group of
// `contexts` applications AffinitySlices × contexts slices.
func uniNominal(cfg experiments.UniConfig, kernels, contexts int) int64 {
	affinity := workstation.DefaultConfig(core.Single, 1).OS.AffinitySlices
	groups := (kernels + contexts - 1) / contexts
	rotation := groups * affinity * contexts
	return int64(cfg.WarmupRotations+cfg.MeasureRotations) * int64(rotation) * cfg.SliceCycles
}

// uniGridPass runs cfg's workstation grid as a serial loop over
// RunUniCell, then assembles it.
func uniGridPass(cfg experiments.UniConfig, m *meter) ([]cellOut, *experiments.UniResult, error) {
	n, err := experiments.UniGridSize(cfg)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]*experiments.UniCellRecord, n)
	for i := range recs {
		s := m.begin("ws-cell")
		recs[i], err = experiments.RunUniCell(runCtx, cfg, i)
		m.end(s)
		if err != nil {
			return nil, nil, err
		}
	}
	s := m.begin("assemble")
	res, err := experiments.AssembleUni(cfg, recs)
	m.end(s)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]cellOut, n)
	for i, rec := range recs {
		c := res.Cells[i]
		kernels, err := experiments.ResolveWorkload(c.Workload)
		if err != nil {
			return nil, nil, err
		}
		cells[i] = cellOut{
			name:   fmt.Sprintf("ws/%s/%v/%d", c.Workload, c.Scheme, c.Contexts),
			kind:   "ws",
			ok:     !rec.Failed && rec.Result != nil,
			cycles: uniNominal(cfg, len(kernels), c.Contexts),
			nodes:  1,
		}
		if rec.Result != nil {
			cells[i].stats = rec.Result.Stats
			cells[i].obs = rec.Result.Metrics
		}
		if cells[i].obs == nil { // the instrumented variant is not compared byte for byte
			cells[i].digest = digestOf(rec)
		}
	}
	return cells, res, nil
}

// mpGridPass is uniGridPass for the multiprocessor grid. A cell's
// nominal cycles are its execution time, which configuration and seed
// fix; the caller takes them from the reference pass.
func mpGridPass(cfg experiments.MPConfig, m *meter) ([]cellOut, *experiments.MPResult, error) {
	n, err := experiments.MPGridSize(cfg)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]*experiments.MPCellRecord, n)
	for i := range recs {
		s := m.begin("mp-cell")
		recs[i], err = experiments.RunMPCell(runCtx, cfg, i)
		m.end(s)
		if err != nil {
			return nil, nil, err
		}
	}
	s := m.begin("assemble")
	res, err := experiments.AssembleMP(cfg, recs)
	m.end(s)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]cellOut, n)
	for i, rec := range recs {
		c := res.Cells[i]
		cells[i] = cellOut{
			name:   fmt.Sprintf("mp/%s/%v/%d", c.App, c.Scheme, c.Contexts),
			kind:   "mp",
			ok:     rec.Completed && !rec.Failed,
			stats:  rec.Stats,
			cycles: rec.Cycles,
			nodes:  cfg.Processors,
			obs:    rec.Metrics,
		}
		if rec.Metrics == nil {
			cells[i].digest = digestOf(rec)
		}
	}
	return cells, res, nil
}

// obsOptions is the observability setting of the instrumented variant
// pass: counter sampling at the default period, no event trace.
var obsOptions = metrics.Options{SampleEvery: metrics.DefaultSampleEvery}

// timed runs a variant pass n times and returns its last output and its
// fastest duration.
func timed(n int, pass func() (*passOut, error)) (out *passOut, best time.Duration, err error) {
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if out, err = pass(); err != nil {
			return nil, 0, err
		}
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return out, best, nil
}

// obsExtras runs the instrumented variant of a grid pass and reports its
// cost relative to the plain pass plus the simulated counters it exposes.
func obsExtras(x *extraCtx, pass func() (*passOut, error)) error {
	out, d, err := timed(variantPasses, pass)
	if err != nil {
		return err
	}
	x.out["metrics.obs_overhead_ratio"] = d.Seconds() / x.base.Seconds()
	for name, v := range obsCounters(out.cells) {
		x.out[name] = float64(v)
	}
	return nil
}

// obsNames maps the simulated counters the metrics registries expose to
// the per-layer metric names they are reported under.
var obsNames = map[string]string{
	"cache/data-accesses":  "cache.data_accesses",
	"cache/data/l2-hit":    "cache.l2_hits",
	"cache/data/memory":    "cache.mem_misses",
	"cache/data/tlb-miss":  "cache.tlb_misses",
	"cache/inst-misses":    "cache.inst_misses",
	"coh/accesses":         "coherence.accesses",
	"coh/local":            "coherence.local_misses",
	"coh/remote":           "coherence.remote_misses",
	"coh/remote-cache":     "coherence.remote_cache_misses",
	"coh/upgrades":         "coherence.upgrades",
	"coh/deferred":         "coherence.nak_retries",
	"node/invalidations":   "coherence.invalidations",
	"cache/writebacks":     "cache.writebacks",
	"cache/data/mshr-full": "cache.mshr_full",
}

// obsCounters sums each exposed counter's last sample over every series
// of every cell. Samples land on fixed cycles, so the sums repeat
// exactly.
func obsCounters(cells []cellOut) map[string]int64 {
	sums := map[string]int64{}
	add := func(s *metrics.Series) {
		if s == nil || len(s.Samples) == 0 {
			return
		}
		last := s.Samples[len(s.Samples)-1].Values
		for i, name := range s.Names {
			if strings.HasPrefix(name, "node") && strings.HasSuffix(name, "/invalidations") {
				name = "node/invalidations"
			}
			if out, ok := obsNames[name]; ok && i < len(last) {
				sums[out] += last[i]
			}
		}
	}
	for _, c := range cells {
		if c.obs == nil {
			continue
		}
		for i := range c.obs.Procs {
			add(&c.obs.Procs[i])
		}
		add(c.obs.Cell)
	}
	return sums
}

// wsTable7 is the Table 7 grid through the per-cell policy every driver
// shares, for three of the seven workload mixes — instruction-cache,
// data-cache and floating-point bound — with slices twice the quick
// scale's and one measure rotation: fifteen cells of about twenty
// milliseconds of host time, a tenth of it building the cell's programs
// (README, "Noise", on why the passes are small and many). The traced run
// adds one pass of the whole grid at full size.
func wsTable7(seed int64, smoke bool) (*workload, error) {
	cfg := experiments.QuickUniConfig()
	full := experiments.DefaultUniConfig()
	cfg.Workloads = []string{"IC", "DC", "FP"}
	cfg.SliceCycles = 16_000
	if smoke {
		cfg.SliceCycles = 8_000
		cfg.Workloads = []string{"DC", "FP"}
		full = cfg
	}
	cfg.Seed, full.Seed = seed, seed
	cfg.Parallelism, full.Parallelism = 1, 1

	var last *experiments.UniResult
	pass := func(cfg experiments.UniConfig) func(m *meter) (*passOut, error) {
		return func(m *meter) (*passOut, error) {
			cells, res, err := uniGridPass(cfg, m)
			if err != nil {
				return nil, err
			}
			s := m.begin("render")
			text := experiments.FormatTable7(res)
			m.end(s)
			last = res
			return &passOut{cells: cells, text: text}, nil
		}
	}
	w := &workload{pass: pass(cfg)}
	w.programs = func() { buildUniPrograms(cfg) }
	w.extras = func(x *extraCtx) error {
		// One pass at the size cmd/experiments runs by default: what a
		// user waits for Table 7, and its fidelity against the paper's
		// means (EXPERIMENTS.md).
		_, d, err := timed(1, func() (*passOut, error) { return pass(full)(nil) })
		if err != nil {
			return err
		}
		x.out["workstation.table7_full_s"] = d.Seconds()
		paper := []struct {
			key string
			s   core.Scheme
			n   int
			ref float64
		}{
			{"blocked2", core.Blocked, 2, 1.03}, {"blocked4", core.Blocked, 4, 1.11},
			{"interleaved2", core.Interleaved, 2, 1.22}, {"interleaved4", core.Interleaved, 4, 1.50},
		}
		var sum float64
		for _, p := range paper {
			e := math.Abs(last.MeanGain(p.s, p.n)-p.ref) / p.ref
			x.out["model.table7_err_"+p.key] = e
			sum += e
		}
		x.out["model.table7_err_mean"] = sum / float64(len(paper))

		ocfg := cfg
		ocfg.Obs = obsOptions
		return obsExtras(x, func() (*passOut, error) { return pass(ocfg)(nil) })
	}
	return w, nil
}

// buildUniPrograms makes every kernel build the workstation grid's cells
// make: four per cell, at the addresses and yield mode the runner uses.
func buildUniPrograms(cfg experiments.UniConfig) {
	workloads := cfg.Workloads
	if workloads == nil {
		workloads = experiments.WorkloadOrder
	}
	type sc struct {
		s core.Scheme
		n int
	}
	shapes := []sc{{core.Single, 1}}
	for _, s := range cfg.Schemes {
		for _, n := range cfg.ContextCounts {
			shapes = append(shapes, sc{s, n})
		}
	}
	for _, w := range workloads {
		kernels, err := experiments.ResolveWorkload(w)
		if err != nil {
			continue
		}
		for _, sh := range shapes {
			yield := workstation.YieldModeFor(sh.s)
			for i, k := range kernels {
				k.Build(apps.Options{
					CodeBase:     0x0100_0000*uint32(i+1) + 0x4800*uint32(i),
					DataBase:     0x4000_0000 + 0x0200_0000*uint32(i) + 0x3800*uint32(i),
					Yield:        yield,
					AutoTolerate: yield != prog.YieldNone,
				})
			}
		}
	}
}

// buildMPPrograms makes every application build the multiprocessor
// grid's cells make.
func buildMPPrograms(cfg experiments.MPConfig) {
	names := cfg.Apps
	if names == nil {
		names = experiments.MPAppOrder
	}
	for _, name := range names {
		app, err := splash.Lookup(name)
		if err != nil {
			continue
		}
		build := func(s core.Scheme, n int) {
			app.Build(splash.Options{
				CodeBase: 0x0100_0000, DataBase: 0x5000_0000,
				Yield:        workstation.YieldModeFor(s),
				AutoTolerate: s != core.Single,
				NumThreads:   cfg.Processors * n,
				Steps:        cfg.Steps, Scale: cfg.Scale,
			})
		}
		build(core.Single, 1)
		for _, s := range cfg.Schemes {
			for _, n := range cfg.ContextCounts {
				build(s, n)
			}
		}
	}
}

// mpTable10 is the Table 10 grid on eight nodes at 2, 4 and 8 contexts,
// cut to two applications — a regular grid with barriers and a
// lock-and-queue code — at one time step each, so that a cell lasts tens
// of milliseconds. The traced run adds one pass of the whole grid at full
// size.
func mpTable10(seed int64, smoke bool) (*workload, error) {
	cfg := experiments.DefaultMPConfig()
	full := cfg
	cfg.Apps = []string{"ocean", "pthor"}
	cfg.Steps = 1
	if smoke {
		cfg = experiments.QuickMPConfig()
		cfg.Apps = []string{"ocean"}
		full = cfg
	}
	cfg.Seed, full.Seed = seed, seed
	cfg.Parallelism, full.Parallelism = 1, 1

	pass := func(cfg experiments.MPConfig) func(m *meter) (*passOut, error) {
		return func(m *meter) (*passOut, error) {
			cells, res, err := mpGridPass(cfg, m)
			if err != nil {
				return nil, err
			}
			s := m.begin("render")
			text := experiments.FormatTable10(res)
			m.end(s)
			return &passOut{cells: cells, text: text}, nil
		}
	}
	w := &workload{pass: pass(cfg)}
	w.programs = func() { buildMPPrograms(cfg) }
	w.extras = func(x *extraCtx) error {
		_, d, err := timed(1, func() (*passOut, error) { return pass(full)(nil) })
		if err != nil {
			return err
		}
		x.out["mp.table10_full_s"] = d.Seconds()
		ocfg := cfg
		ocfg.Obs = obsOptions
		return obsExtras(x, func() (*passOut, error) { return pass(ocfg)(nil) })
	}
	return w, nil
}

// stallNodes is the multiprocessor size of the streaming-miss cells:
// half the paper's eight nodes, which halves a cell's host time.
const stallNodes = 4

// stallCell is one multiprocessor streaming-miss cell of core-stall.
type stallCell struct {
	scheme   core.Scheme
	contexts int
	prog     *prog.Program
}

// build makes the cell's program: every thread sweeps its region once.
func (c *stallCell) build() { c.prog = stallProgram(stallNodes * c.contexts) }

// chainCell is one uniprocessor dependency-chain cell of core-stall.
type chainCell struct {
	scheme   core.Scheme
	contexts int
	iters    int // chain iterations, split over the contexts
	progs    []*prog.Program
}

func (c *chainCell) build() {
	c.progs = c.progs[:0]
	for i := 0; i < c.contexts; i++ {
		c.progs = append(c.progs, chainProgram(c.iters/c.contexts, i))
	}
}

// chainResult is what a chain cell's run is reduced to for comparison.
type chainResult struct {
	Cycles      int64
	Halted      bool
	Stats       core.Stats
	MachineHash uint64
}

// runChain runs one dependency-chain cell to completion on a fresh
// processor over the workstation cache hierarchy.
func runChain(c chainCell, ccfg core.Config, opts guard.Options) (*chainResult, error) {
	fm := mem.New()
	h, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		return nil, err
	}
	proc, err := core.NewProcessor(ccfg, h, fm)
	if err != nil {
		return nil, err
	}
	for i, p := range c.progs {
		p.LoadInit(fm)
		proc.BindThread(i, core.NewThread(fmt.Sprintf("chain.%d", i), p))
	}
	cycles, halted, err := proc.RunGuardedCtx(runCtx, 1<<40, opts)
	if err != nil {
		return nil, err
	}
	return &chainResult{cycles, halted, proc.Stats, proc.MachineHash()}, nil
}

// coreStall uses the core the other way round from the two grids: six
// streaming-miss multiprocessor cells and three divide-chain
// uniprocessor cells, in which nearly every slot is a stall the
// fast-forward engine skips or a miss transaction.
func coreStall(seed int64, smoke bool) (*workload, error) {
	chainIters := 4000
	if smoke {
		chainIters = 400
	}
	stallGrid := []struct {
		s core.Scheme
		c []int
	}{
		{core.Single, []int{1}},
		{core.Blocked, []int{1, 2, 4}},
		{core.Interleaved, []int{2, 4}},
	}
	if smoke {
		stallGrid = stallGrid[2:]
	}
	var stalls []stallCell
	for _, sc := range stallGrid {
		for _, c := range sc.c {
			stalls = append(stalls, stallCell{scheme: sc.s, contexts: c})
		}
	}
	chains := []chainCell{
		{scheme: core.Single, contexts: 1, iters: chainIters},
		{scheme: core.Blocked, contexts: 4, iters: chainIters},
		{scheme: core.Interleaved, contexts: 4, iters: chainIters},
	}
	programs := func() {
		for i := range stalls {
			stalls[i].build()
		}
		for i := range chains {
			chains[i].build()
		}
	}
	programs()

	pass := func(opts guard.Options) func(m *meter) (*passOut, error) {
		return func(m *meter) (*passOut, error) {
			out := &passOut{}
			for _, c := range stalls {
				cfg := mp.DefaultConfig(c.scheme, c.contexts)
				cfg.Processors = stallNodes
				cfg.LimitCycles = 500_000_000
				cfg.Coherence.Seed = seed
				cfg.Guard = opts
				s := m.begin("mp-cell")
				r, err := mp.RunCtx(runCtx, c.prog, cfg)
				m.end(s)
				if err != nil {
					return nil, fmt.Errorf("stall %v/%d: %w", c.scheme, c.contexts, err)
				}
				out.cells = append(out.cells, cellOut{
					name: fmt.Sprintf("mp/stall/%v/%d", c.scheme, c.contexts),
					kind: "mp", ok: r.Completed, stats: r.Stats, cycles: r.Cycles, nodes: stallNodes,
					digest: digestOf(struct {
						Cycles            int64
						Completed         bool
						Stats             core.Stats
						MemHash, ArchHash uint64
					}{r.Cycles, r.Completed, r.Stats, r.MemHash, r.ArchHash}),
				})
			}
			for _, c := range chains {
				s := m.begin("uni-cell")
				r, err := runChain(c, core.DefaultConfig(c.scheme, c.contexts), opts)
				m.end(s)
				if err != nil {
					return nil, fmt.Errorf("chain %v/%d: %w", c.scheme, c.contexts, err)
				}
				out.cells = append(out.cells, cellOut{
					name: fmt.Sprintf("uni/chain/%v/%d", c.scheme, c.contexts),
					kind: "uni", ok: r.Halted, stats: r.Stats, cycles: r.Cycles, nodes: 1,
					digest: digestOf(r),
				})
			}
			var b strings.Builder
			for _, c := range out.cells {
				fmt.Fprintf(&b, "%-28s %12d cycles  busy %.4f\n", c.name, c.cycles, c.stats.BusyFraction())
			}
			out.text = b.String()
			return out, nil
		}
	}
	w := &workload{pass: pass(guard.Options{})}
	w.programs = programs
	w.extras = func(x *extraCtx) error {
		// The same cells with the invariant checkers polled at the
		// default cadence: what guarding costs, and that it changes nothing.
		out, d, err := timed(variantPasses, func() (*passOut, error) {
			return pass(guard.Options{CheckInvariants: true})(nil)
		})
		if err != nil {
			return err
		}
		if bad := compare(x.ref, out); bad > 0 {
			return fmt.Errorf("%d cells differ with invariant checking on", bad)
		}
		x.out["guard.invariants_overhead_ratio"] = d.Seconds() / x.base.Seconds()
		return nil
	}
	return w, nil
}

// sweepFork is the switch-cost and MSHR sweeps on DC in the warm-up-heavy
// configuration where the checkpoint planner matters: twelve warm-up
// rotations simulated once per cell group, one measure rotation per cell.
func sweepFork(seed int64, smoke bool) (*workload, error) {
	cfg := experiments.DefaultUniConfig()
	cfg.WarmupRotations = 12
	cfg.MeasureRotations = 1
	cfg.SliceCycles = 2_000
	if smoke {
		cfg.WarmupRotations = 3
	}
	cfg.Seed = seed
	cfg.Parallelism = 1
	kernels, err := experiments.ResolveWorkload("DC")
	if err != nil {
		return nil, err
	}

	pass := func(cfg experiments.UniConfig) func(m *meter) (*passOut, error) {
		return func(m *meter) (*passOut, error) {
			out := &passOut{}
			var text strings.Builder
			for _, sw := range []struct {
				name string
				run  func(context.Context, experiments.UniConfig, string) (*experiments.SweepResult, error)
			}{
				{"switch-cost", experiments.SwitchCostSweepCtx},
				{"mshr", experiments.MSHRSweepCtx},
			} {
				s := m.begin("sweep")
				res, err := sw.run(runCtx, cfg, "DC")
				m.end(s)
				if err != nil {
					return nil, fmt.Errorf("%s sweep: %w", sw.name, err)
				}
				s = m.begin("render")
				text.WriteString(experiments.FormatSweep(res))
				m.end(s)
				// One cell per simulated point: the sweep's baseline, which
				// every gain is relative to, plus each series point. All run
				// four applications on one or four contexts, so a rotation
				// is twelve slices for every point.
				add := func(series string, pt experiments.SweepPoint) {
					out.cells = append(out.cells, cellOut{
						name: fmt.Sprintf("sweep/%s/%s/%s", sw.name, series, pt.Label),
						kind: "sweep", digest: digestOf(pt),
						ok:     pt.Gain > 0 && !math.IsInf(pt.Gain, 0) && !math.IsNaN(pt.Gain),
						cycles: uniNominal(cfg, len(kernels), 4), nodes: 1,
					})
				}
				add("baseline", experiments.SweepPoint{Label: "1 context", Gain: 1})
				for _, name := range sortedKeys(res.Series) {
					for _, pt := range res.Series[name] {
						add(name, pt)
					}
				}
			}
			out.text = text.String()
			return out, nil
		}
	}
	w := &workload{pass: pass(cfg)}
	w.programs = func() {
		c := cfg
		c.Workloads = []string{"DC"}
		buildUniPrograms(c)
	}
	w.extras = func(x *extraCtx) error {
		// The same sweeps with forking off: what the planner saves, and
		// the byte comparison tests cannot see a silent fallback through.
		scfg := cfg
		scfg.Checkpoint.Disabled = true
		out, d, err := timed(variantPasses, func() (*passOut, error) { return pass(scfg)(nil) })
		if err != nil {
			return err
		}
		if bad := compare(x.ref, out); bad > 0 {
			return fmt.Errorf("%d sweep points differ between forked and scratch", bad)
		}
		x.out["experiments.sweep_scratch_s"] = d.Seconds()
		x.out["experiments.fork_speedup"] = d.Seconds() / x.base.Seconds()
		return nil
	}
	return w, nil
}

func sortedKeys(m map[string][]experiments.SweepPoint) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compare counts the cells of got that are not completed or whose record
// differs from the reference pass's; a text mismatch with no cell to pin
// it on counts every cell.
func compare(ref, got *passOut) int {
	if len(ref.cells) != len(got.cells) {
		return len(ref.cells)
	}
	bad := 0
	for i, c := range got.cells {
		if !c.ok || c.digest != ref.cells[i].digest {
			bad++
		}
	}
	if bad == 0 && got.text != ref.text {
		return len(ref.cells)
	}
	return bad
}

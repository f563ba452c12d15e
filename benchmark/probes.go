package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/mp"
	"repro/internal/prog"
	"repro/internal/snapshot"
	"repro/internal/workstation"
)

// The layer probes time the public entry points of each layer in bulk,
// from outside: each probe repeats one operation until a single timed
// call lasts probeMin, and reports the mean of that call. They do not
// depend on the workload — every traced run carries all of them, which
// also makes them a reading of the host's speed at the time of the run.

// probeMin is how long one bulk-timed call must last.
var probeMin = 200 * time.Millisecond

// probeUni is the workstation configuration the cell-sized fixtures of
// the probes take their slice length and rotation counts from.
var probeUni = experiments.DefaultUniConfig()

// bulkN calls fn with a growing operation count until one call lasts
// probeMin and returns that call's duration and count.
func bulkN(fn func(n int) error) (time.Duration, int, error) {
	for n := 1; ; {
		t0 := time.Now()
		err := fn(n)
		d := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if d >= probeMin {
			return d, n, nil
		}
		if d < probeMin/50 {
			n *= 10
		} else {
			n = int(1.2*float64(n)*float64(probeMin)/float64(d)) + 1
		}
	}
}

// bulk is bulkN reduced to nanoseconds per operation.
func bulk(fn func(n int) error) (float64, error) {
	d, n, err := bulkN(fn)
	if err != nil {
		return 0, err
	}
	return float64(d.Nanoseconds()) / float64(n), nil
}

// runProbes runs every layer probe and adds its metrics to out.
func runProbes(seed int64, out map[string]float64) error {
	for _, p := range []func(int64, map[string]float64) error{
		probeCore, probeCache, probeCoherence, probeMem, probeEngine,
		probeWorkstation, probeSnapshot, probeExperiments,
	} {
		if err := p(seed, out); err != nil {
			return err
		}
	}
	return nil
}

// probeCore times the busy issue path (a pure-compute kernel over an
// always-hit memory, so nothing is skippable and no cache code runs) at
// one, four and eight interleaved contexts, the stall path (a
// streaming-miss multiprocessor cell, per miss) and the dependency path
// (the divide chain, stepped and fast-forwarded).
func probeCore(seed int64, out map[string]float64) error {
	for _, c := range []struct {
		name     string
		contexts int
	}{{"core.busy_ns_per_inst", 1}, {"core.busy_ns_per_inst_ctx4", 4}, {"core.busy_ns_per_inst_ctx8", 8}} {
		fm := mem.New()
		proc, err := core.NewProcessor(core.DefaultConfig(core.Interleaved, c.contexts), hitMem{}, fm)
		if err != nil {
			return err
		}
		for i := 0; i < c.contexts; i++ {
			p := computeProgram(i)
			p.LoadInit(fm)
			proc.BindThread(i, core.NewThread(p.Name, p))
		}
		var retired int64
		d, _, err := bulkN(func(n int) error {
			r0 := proc.Stats.Retired
			proc.Run(int64(n) * 1000)
			retired = proc.Stats.Retired - r0
			return nil
		})
		if err != nil {
			return err
		}
		out[c.name] = float64(d.Nanoseconds()) / float64(retired)
	}

	stall := stallProgram(16)
	scfg := mp.DefaultConfig(core.Interleaved, 2)
	scfg.Processors = 8
	scfg.Coherence.Seed = seed
	var misses int64
	d, _, err := bulkN(func(n int) error {
		misses = 0
		for i := 0; i < n; i++ {
			r, err := mp.RunCtx(runCtx, stall, scfg)
			if err != nil {
				return err
			}
			misses += r.Stats.MissSwitches
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["core.stall_ns_per_miss"] = float64(d.Nanoseconds()) / float64(misses)

	chain := chainCell{scheme: core.Single, contexts: 1, iters: 400}
	chain.build()
	perCycle := func(noFF bool) (float64, error) {
		ccfg := core.DefaultConfig(core.Single, 1)
		ccfg.NoFastForward = noFF
		var cycles int64
		d, _, err := bulkN(func(n int) error {
			cycles = 0
			for i := 0; i < n; i++ {
				r, err := runChain(chain, ccfg, guard.Options{})
				if err != nil {
					return err
				}
				cycles += r.Cycles
			}
			return nil
		})
		return float64(d.Nanoseconds()) / float64(cycles), err
	}
	ff, err := perCycle(false)
	if err != nil {
		return err
	}
	stepped, err := perCycle(true)
	if err != nil {
		return err
	}
	out["core.chain_ns_per_cycle"] = ff
	out["core.ff_speedup_chain"] = stepped / ff
	return nil
}

// probeCache times Hierarchy.AccessData on three synthetic address
// streams — one that always hits the primary cache, one that alternates
// two lines conflicting in the primary cache but resident in the
// secondary, one that streams through memory — and FetchInst on a loop
// that fits the instruction cache. Each access is 256 cycles after the
// last, so every fill has landed and no miss register is held.
func probeCache(_ int64, out map[string]float64) error {
	p := cache.DefaultParams()
	const gap = 256
	for _, s := range []struct {
		name string
		addr func(i int) uint32
	}{
		{"cache.l1_hit_ns", func(i int) uint32 { return 0x4000_0000 + uint32(i%64)*4 }},
		{"cache.l2_hit_ns", func(i int) uint32 { return 0x4000_0000 + uint32(i%2)*uint32(p.L1DSize) }},
		{"cache.mem_miss_ns", func(i int) uint32 { return 0x4000_0000 + uint32(i%(1<<20))*uint32(p.LineSize) }},
	} {
		h, err := cache.NewHierarchy(p)
		if err != nil {
			return err
		}
		now, i := int64(0), 0
		ns, err := bulk(func(n int) error {
			for k := 0; k < n; k++ {
				h.AccessData(s.addr(i), i%4 == 3, 0x1000, now)
				now += gap
				i++
			}
			return nil
		})
		if err != nil {
			return err
		}
		out[s.name] = ns
	}
	h, err := cache.NewHierarchy(p)
	if err != nil {
		return err
	}
	now, i := int64(0), 0
	ns, err := bulk(func(n int) error {
		for k := 0; k < n; k++ {
			h.FetchInst(0x0100_0000+uint32(i%256)*4, now)
			now++
			i++
		}
		return nil
	})
	out["cache.fetch_ns"] = ns
	return err
}

// probeCoherence times Node.AccessData on an eight-node fabric: node 0
// streaming reads through lines homed on itself, through lines homed on
// node 1, and reading then writing each line (the write is an upgrade of
// a shared copy). Lines are homed round-robin by line number.
func probeCoherence(seed int64, out map[string]float64) error {
	const nodes, gap = 8, 512
	p := coherence.DefaultParams()
	p.Seed = seed
	line := uint32(p.LineSize)
	for _, s := range []struct {
		name    string
		addr    func(i int) uint32
		upgrade bool
	}{
		{"coherence.local_miss_ns", func(i int) uint32 { return 0x4000_0000 + uint32(i%(1<<16))*nodes*line }, false},
		{"coherence.remote_miss_ns", func(i int) uint32 { return 0x4000_0000 + (uint32(i%(1<<16))*nodes+1)*line }, false},
		{"coherence.upgrade_ns", func(i int) uint32 { return 0x4000_0000 + (uint32(i%(1<<16))*nodes+1)*line }, true},
	} {
		fab, err := coherence.NewFabric(p, nodes)
		if err != nil {
			return err
		}
		node := fab.Node(0)
		now, i := int64(0), 0
		ns, err := bulk(func(n int) error {
			for k := 0; k < n; k++ {
				a := s.addr(i)
				node.AccessData(a, false, 0x1000, now)
				now += gap
				if s.upgrade {
					node.AccessData(a, true, 0x1000, now)
					now += gap
				}
				i++
			}
			return nil
		})
		if err != nil {
			return err
		}
		out[s.name] = ns
	}
	return nil
}

// probeMem times the functional memory: word loads and stores striding
// through 4 MiB, and the content hash of those 1024 pages.
func probeMem(_ int64, out map[string]float64) error {
	const span = 4 << 20
	m := mem.New()
	for a := uint32(0); a < span; a += 4 {
		m.StoreW(0x4000_0000+a, a)
	}
	i := uint32(0)
	var sink uint32
	ns, err := bulk(func(n int) error {
		for k := 0; k < n; k++ {
			sink += m.LoadW(0x4000_0000 + (i*68)%span&^3)
			i++
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["mem.loadw_ns"] = ns
	ns, err = bulk(func(n int) error {
		for k := 0; k < n; k++ {
			m.StoreW(0x4000_0000+(i*68)%span&^3, i+sink)
			i++
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["mem.storew_ns"] = ns
	ns, err = bulk(func(n int) error {
		for k := 0; k < n; k++ {
			sink += uint32(m.Hash())
		}
		return nil
	})
	out["mem.hash_ms"] = ns * 1e-6
	return err
}

// probeEngine times the block loop itself: Engine.Run over a machine
// whose Advance does nothing, on the multiprocessor's fixed 64-cycle
// block grid, with every hook detached and with the watchdog, the guard
// cadence and cell sampling armed.
func probeEngine(_ int64, out map[string]float64) error {
	noop := func(now, target int64) int64 { return target }
	never := func() bool { return false }
	run := func(e *engine.Engine) (float64, error) {
		start := int64(0)
		return bulk(func(n int) error {
			end := start + int64(n)*engine.BlockCycles
			_, err := e.Run(runCtx, start, end)
			start = end
			return err
		})
	}
	ns, err := run(&engine.Engine{Advance: noop, Halted: never, HaltEvery: engine.BlockCycles})
	if err != nil {
		return err
	}
	out["engine.block_ns"] = ns
	var progress int64
	ns, err = run(&engine.Engine{
		Advance: noop, Halted: never, HaltEvery: engine.BlockCycles,
		Watchdog:   guard.NewWatchdog(1 << 20),
		Progress:   func() int64 { progress++; return progress },
		GuardEvery: guard.Options{}.CheckCadence(),
		Sample:     func(int64) {}, SampleEvery: 4096,
	})
	out["engine.block_guarded_ns"] = ns
	return err
}

// dcCell is the workstation cell the split and snapshot probes use: the
// DC workload on four blocked contexts at the Table 7 configuration.
func dcCell(seed int64) ([]apps.Kernel, workstation.Config, error) {
	kernels, err := experiments.ResolveWorkload("DC")
	cfg := probeUni
	wcfg := workstation.DefaultConfig(core.Blocked, 4)
	wcfg.OS.SliceCycles = cfg.SliceCycles
	wcfg.WarmupRotations = cfg.WarmupRotations
	wcfg.MeasureRotations = cfg.MeasureRotations
	wcfg.Seed = seed
	return kernels, wcfg, err
}

// probeWorkstation splits one workstation cell at the measure boundary,
// the way the checkpoint planner does: the warm-up half up to the
// serialized machine, and the measure half resumed from it.
func probeWorkstation(seed int64, out map[string]float64) error {
	kernels, wcfg, err := dcCell(seed)
	if err != nil {
		return err
	}
	var ckpt []byte
	ns, err := bulk(func(n int) error {
		for i := 0; i < n; i++ {
			if ckpt, err = workstation.CheckpointWarmupCtx(runCtx, kernels, wcfg, "benchmark"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["workstation.warmup_s"] = ns * 1e-9
	out["snapshot.ws_bytes"] = float64(len(ckpt))
	ns, err = bulk(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := workstation.ResumeCtx(runCtx, kernels, wcfg, ckpt, "benchmark"); err != nil {
				return err
			}
		}
		return nil
	})
	out["workstation.measure_s"] = ns * 1e-9
	return err
}

// wsMachine is the workstation's machine state as the layers expose it:
// functional memory, cache hierarchy, one processor and its threads.
type wsMachine struct {
	fm      *mem.Memory
	h       *cache.Hierarchy
	proc    *core.Processor
	threads []*core.Thread
}

func newWSMachine(kernels []apps.Kernel) (*wsMachine, error) {
	m := &wsMachine{fm: mem.New()}
	var err error
	if m.h, err = cache.NewHierarchy(cache.DefaultParams()); err != nil {
		return nil, err
	}
	if m.proc, err = core.NewProcessor(core.DefaultConfig(core.Interleaved, len(kernels)), m.h, m.fm); err != nil {
		return nil, err
	}
	for i, k := range kernels {
		p := k.Build(apps.Options{
			CodeBase: 0x0100_0000 * uint32(i+1), DataBase: 0x4000_0000 + 0x0200_0000*uint32(i),
			Yield: prog.YieldBackoff, AutoTolerate: true,
		})
		p.LoadInit(m.fm)
		th := core.NewThread(k.Name, p)
		m.threads = append(m.threads, th)
		m.proc.BindThread(i, th)
	}
	return m, nil
}

func (m *wsMachine) save() []byte {
	w := snapshot.NewWriter()
	for _, th := range m.threads {
		th.SaveState(w)
	}
	m.proc.SaveState(w)
	m.h.SaveState(w)
	m.fm.SaveState(w)
	return snapshot.Encode("benchmark-ws", "benchmark", w.Bytes())
}

func (m *wsMachine) restore(data []byte) error {
	r, err := snapshot.Decode(data, "benchmark-ws", "benchmark")
	if err != nil {
		return err
	}
	for _, th := range m.threads {
		th.RestoreState(r)
	}
	m.proc.RestoreState(r)
	m.h.RestoreState(r)
	m.fm.RestoreState(r)
	return snapshot.Finish(r)
}

// probeSnapshot times the codec on every layer's SaveState and
// RestoreState, through the same container the drivers use. The
// workstation shape is memory + hierarchy + processor + threads after
// 256 K warm cycles of the DC kernels; the multiprocessor shape is an
// eight-node fabric and its memory after every node streamed 4096 lines
// through its cache. The drivers' own bookkeeping (a few dozen bytes) is
// not part of either.
func probeSnapshot(seed int64, out map[string]float64) error {
	kernels, err := experiments.ResolveWorkload("DC")
	if err != nil {
		return err
	}
	src, err := newWSMachine(kernels)
	if err != nil {
		return err
	}
	src.proc.Run(256 << 10)
	dst, err := newWSMachine(kernels)
	if err != nil {
		return err
	}
	var data []byte
	ns, err := bulk(func(n int) error {
		for i := 0; i < n; i++ {
			data = src.save()
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["snapshot.ws_save_ms"] = ns * 1e-6
	ns, err = bulk(func(n int) error {
		for i := 0; i < n; i++ {
			if err := dst.restore(data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["snapshot.ws_restore_ms"] = ns * 1e-6
	if src.proc.MachineHash() != dst.proc.MachineHash() {
		return fmt.Errorf("snapshot probe: restored workstation machine differs from the saved one")
	}

	const nodes = 8
	p := coherence.DefaultParams()
	p.Seed = seed
	fab, err := coherence.NewFabric(p, nodes)
	if err != nil {
		return err
	}
	fm := mem.New()
	now := int64(0)
	for i := 0; i < 4096; i++ {
		for nd := 0; nd < nodes; nd++ {
			a := 0x4000_0000 + uint32(nd)<<20 + uint32(i)*uint32(p.LineSize)
			fab.Node(nd).AccessData(a, i%2 == 1, 0x1000, now)
			fm.StoreW(a, uint32(i))
		}
		now += 512
	}
	var fab2 *coherence.Fabric
	var fm2 *mem.Memory
	ns, err = bulk(func(n int) error {
		for i := 0; i < n; i++ {
			w := snapshot.NewWriter()
			fab.SaveState(w)
			fm.SaveState(w)
			data = snapshot.Encode("benchmark-mp", "benchmark", w.Bytes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["snapshot.mp_save_ms"] = ns * 1e-6
	out["snapshot.mp_bytes"] = float64(len(data))
	ns, err = bulk(func(n int) error {
		for i := 0; i < n; i++ {
			// A fabric restores only into a freshly built one (its latency
			// stream must not have been drawn from), so building the target
			// is part of the restore.
			if fab2, err = coherence.NewFabric(p, nodes); err != nil {
				return err
			}
			fm2 = mem.New()
			r, err := snapshot.Decode(data, "benchmark-mp", "benchmark")
			if err != nil {
				return err
			}
			fab2.RestoreState(r)
			fm2.RestoreState(r)
			if err := snapshot.Finish(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["snapshot.mp_restore_ms"] = ns * 1e-6
	if fab.Hash() != fab2.Hash() || fm.Hash() != fm2.Hash() {
		return fmt.Errorf("snapshot probe: restored fabric differs from the saved one")
	}
	return nil
}

// probeExperiments times what the experiment layer adds around the
// cells: assembling and rendering a grid from its records, and the cell
// journal's append (one fsync each, on a real directory) and replay.
func probeExperiments(seed int64, out map[string]float64) error {
	uni := experiments.QuickUniConfig()
	uni.Workloads = []string{"DC", "FP"}
	uni.Seed, uni.Parallelism = seed, 1
	n, err := experiments.UniGridSize(uni)
	if err != nil {
		return err
	}
	recs := make([]*experiments.UniCellRecord, n)
	for i := range recs {
		if recs[i], err = experiments.RunUniCell(runCtx, uni, i); err != nil {
			return err
		}
	}
	// What the in-process pool adds per cell at one worker, measured on
	// cells that do nothing. (RunUniprocessor minus the bare cell loop, as
	// ISSUE 12 defined it, is a difference of two multi-second timings
	// about a thousand times larger than the quantity.)
	pool := experiments.NewPool(1)
	ns, err := bulk(func(n int) error {
		if failed := pool.RunAll(runCtx, n, func(context.Context, int) error { return nil }); len(failed) > 0 {
			return failed[0]
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["experiments.pool_overhead_ms_per_cell"] = ns * 1e-6

	var res *experiments.UniResult
	ns, err = bulk(func(n int) error {
		for i := 0; i < n; i++ {
			if res, err = experiments.AssembleUni(uni, recs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["experiments.assemble_ms"] = ns * 1e-6
	var text string
	ns, err = bulk(func(n int) error {
		for i := 0; i < n; i++ {
			text = experiments.FormatTable7(res)
		}
		return nil
	})
	if err != nil || text == "" {
		return fmt.Errorf("render probe: %v", err)
	}
	out["experiments.render_ms"] = ns * 1e-6

	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cells.journal")
	fp := experiments.NewFingerprint(&uni, nil, nil)
	j, err := experiments.CreateJournal(path, fp)
	if err != nil {
		return err
	}
	index := 0
	ns, err = bulk(func(n int) error {
		for i := 0; i < n; i++ {
			j.Record(experiments.GridWorkstation, index, recs[index%len(recs)])
			index++
		}
		return j.Err()
	})
	if err != nil {
		j.Close()
		return err
	}
	out["experiments.journal_record_ms"] = ns * 1e-6
	if err := j.Close(); err != nil {
		return err
	}
	ns, err = bulk(func(n int) error {
		for i := 0; i < n; i++ {
			j, err := experiments.OpenJournal(path, fp)
			if err != nil {
				return err
			}
			if j.Cells() != index {
				j.Close()
				return fmt.Errorf("journal replayed %d cells, want %d", j.Cells(), index)
			}
			if err := j.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	// Per replayed record, so the figure does not depend on how many
	// appends the record probe happened to make.
	out["experiments.journal_replay_ms"] = ns * 1e-6 / float64(index)
	return err
}

package mp

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/splash"
)

// BenchmarkAdvanceMP is the lockstep driver's cost per processor-cycle on
// the cells mp-table10 spends its time in: one ocean time step on the
// paper's 8 nodes, single-context, blocked and interleaved. It sits beside
// core's BenchmarkIssueBusy and BenchmarkAdvanceILP as the number for the
// layer core.Processor.Advance moved; the repository benchmark's
// mp.ns_per_node_cycle is the same quantity over a whole Table 10 grid.
func BenchmarkAdvanceMP(b *testing.B) {
	for _, bc := range []struct {
		name     string
		scheme   core.Scheme
		contexts int
	}{
		{"single1", core.Single, 1},
		{"blocked4", core.Blocked, 4},
		{"interleaved4", core.Interleaved, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig(bc.scheme, bc.contexts)
			p := splash.Ocean().Program(splash.MPOptions(bc.scheme, cfg.Processors*bc.contexts, 1, 0))
			var cycles int64
			best := time.Duration(math.MaxInt64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				r, err := Run(p, cfg)
				if err != nil || !r.Completed {
					b.Fatalf("ocean step: completed=%v err=%v", r != nil && r.Completed, err)
				}
				best = min(best, time.Since(start))
				cycles = r.Cycles
			}
			// The fastest step as well as the mean: on a shared host only
			// the minimum repeats.
			perStep := float64(cycles * int64(cfg.Processors))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perStep, "ns/proc-cycle")
			b.ReportMetric(float64(best.Nanoseconds())/perStep, "min-ns/proc-cycle")
		})
	}
}

// stallMissProg is the miss path's kernel: every thread sweeps a private
// 128 KiB region at line stride, loading each line and then storing to
// it, so each line costs two directory transactions — the load's miss and
// the store's upgrade — and the 64 KiB node caches write back what they
// evict. TidReg carries the thread id.
func stallMissProg(tb testing.TB, threads int) *prog.Program {
	tb.Helper()
	const region, line = 128 << 10, 32
	b := prog.NewBuilder("stall-miss", 0x1000, 0x10_0000, uint32(threads)*region+(64<<10))
	arr := b.Alloc(uint32(threads)*region, 64)
	b.La(isa.R1, arr)
	b.Sll(isa.R11, TidReg, 17) // tid * 128 KiB
	b.Add(isa.R1, isa.R1, isa.R11)
	b.Li(isa.R5, region/line)
	b.Label("loop")
	b.Lw(isa.R6, isa.R1, 0)
	b.Addi(isa.R6, isa.R6, 1)
	b.Sw(isa.R6, isa.R1, 0)
	b.Addi(isa.R1, isa.R1, line)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bgtz(isa.R5, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkStallMiss is the host cost of one simulated multiprocessor
// miss: 4 nodes whose every context streams through a private region
// (stallMissProg), single-context, blocked and interleaved. Nearly every
// slot waits on a miss, so the run is the miss path — the core's stall
// and shadow regions, the fabric's directory transaction, functional
// memory's page lookup — and little else. A miss is one directory
// transaction; like BenchmarkAdvanceMP it reports the fastest run, the
// one number that repeats on a shared host.
func BenchmarkStallMiss(b *testing.B) {
	for _, bc := range []struct {
		name     string
		scheme   core.Scheme
		contexts int
	}{
		{"single1", core.Single, 1},
		{"blocked4", core.Blocked, 4},
		{"interleaved4", core.Interleaved, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig(bc.scheme, bc.contexts)
			cfg.Processors = 4
			p := stallMissProg(b, cfg.Processors*bc.contexts)
			var misses int64
			best := time.Duration(math.MaxInt64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := newMachine(p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if done, err := m.eng.Run(context.Background(), 0, cfg.LimitCycles); err != nil || !done {
					b.Fatalf("stall-miss sweep: completed=%v err=%v", done, err)
				}
				best = min(best, time.Since(start))
				misses = 0
				for n := 0; n < cfg.Processors; n++ {
					by := &m.fab.Node(n).Stats.ByClass
					misses += by[memsys.LocalMem] + by[memsys.RemoteMem] + by[memsys.RemoteCache]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(misses), "ns/miss")
			b.ReportMetric(float64(best.Nanoseconds())/float64(misses), "min-ns/miss")
		})
	}
}

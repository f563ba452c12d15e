package mp

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
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

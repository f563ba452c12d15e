package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/stats"
)

// The paper's §5.1 closing argument: "many workstations run with one large
// job in the background which is timesharing the processor with ... a
// number of smaller foreground jobs. The response time of the windowing
// system can be improved if it does not require other jobs to be swapped
// before it can run ... the interleaved scheme allows a workstation to be
// built that will appear significantly faster to the user."
//
// This experiment measures exactly that: an interactive foreground thread
// wakes periodically, performs a small burst of work, stamps a completion
// flag and sleeps again, while a memory-intensive batch job runs. On the
// single-context processor the foreground must wait for its OS time
// slice; on a multiple-context processor it is resident in a hardware
// context and responds immediately.

// ResponseConfig parameterizes the interactive-response experiment.
type ResponseConfig struct {
	// BurstInstructions is the size of each interactive burst.
	BurstInstructions int
	// ThinkCycles is the foreground's sleep between bursts.
	ThinkCycles int32
	// SliceCycles is the OS time slice used on the single-context
	// processor (the foreground gets scheduled once per rotation).
	SliceCycles int64
	// Bursts is how many responses to measure.
	Bursts int
	// Background names the batch kernel.
	Background string
	// Parallelism bounds how many designs run concurrently: 0 selects
	// DefaultParallelism (GOMAXPROCS), 1 forces the serial path.
	Parallelism int
}

// DefaultResponseConfig returns a foreground job that wakes every 6000
// cycles for a ~300-instruction burst against a tomcatv background.
func DefaultResponseConfig() ResponseConfig {
	return ResponseConfig{
		BurstInstructions: 300,
		ThinkCycles:       6000,
		SliceCycles:       6000,
		Bursts:            40,
		Background:        "tomcatv",
	}
}

// ResponseCell is one scheme's measured response-time distribution, in
// cycles from wake-up to burst completion.
type ResponseCell struct {
	Name   string
	Mean   float64
	Median int64
	P90    int64
}

// ResponseResult holds the experiment's cells.
type ResponseResult struct {
	Cfg   ResponseConfig
	Cells []ResponseCell
}

const responseFlagAddr = 0x7000_0000

// foregroundProgram builds the interactive thread: sleep, burst, stamp.
func foregroundProgram(cfg ResponseConfig) *prog.Program {
	b := prog.NewBuilder("interactive", 0x0070_0000, responseFlagAddr, 1<<16)
	flag := b.Alloc(64, 64)
	work := b.Alloc(512, 64)
	_ = flag // at responseFlagAddr by construction
	b.SetYield(prog.YieldBackoff)
	b.La(isa.R8, responseFlagAddr)
	b.La(isa.R9, work)
	b.Label("wake")
	// The burst: a dependent compute/memory mix, like event handling.
	for i := 0; i < cfg.BurstInstructions/4; i++ {
		b.Lw(isa.R10, isa.R9, int32(4*(i%64)))
		b.Addi(isa.R10, isa.R10, 1)
		b.Sw(isa.R10, isa.R9, int32(4*(i%64)))
		b.Xor(isa.R11, isa.R11, isa.R10)
	}
	b.Sw(isa.R11, isa.R8, 0) // completion stamp (watched)
	b.Yield(cfg.ThinkCycles) // think time
	b.J("wake")
	return b.MustBuild()
}

// RunResponse measures the foreground's response latency under three
// designs: single-context with OS timesharing, and blocked/interleaved
// processors with the foreground resident in its own context.
func RunResponse(cfg ResponseConfig) (*ResponseResult, error) {
	return RunResponseCtx(context.Background(), cfg)
}

// RunResponseCtx is RunResponse with cancellation: the designs run their
// simulations slice by slice, so cancellation is observed at slice
// granularity (cfg.SliceCycles).
func RunResponseCtx(ctx context.Context, cfg ResponseConfig) (*ResponseResult, error) {
	bg, err := apps.Lookup(cfg.Background)
	if err != nil {
		return nil, err
	}
	res := &ResponseResult{Cfg: cfg}

	type design struct {
		name     string
		scheme   core.Scheme
		contexts int
	}
	designs := []design{
		{"single (OS timeshares)", core.Single, 1},
		{"blocked, 2 contexts", core.Blocked, 2},
		{"interleaved, 2 contexts", core.Interleaved, 2},
	}
	// Each design is a self-contained simulation (own memory, hierarchy,
	// processor), so the three run concurrently; cells[i] keeps the
	// design order stable regardless of completion order.
	cells := make([]ResponseCell, len(designs))
	err = runCells(ctx, cfg.Parallelism, len(designs), func(ctx context.Context, i int) error {
		d := designs[i]
		fg := foregroundProgram(cfg)
		bgProg := bg.Program(apps.Options{
			CodeBase: 0x0100_0000,
			DataBase: 0x4000_0000,
			Yield:    d.scheme.YieldMode(),
		})

		fm := mem.New()
		fg.LoadInit(fm)
		bgProg.LoadInit(fm)
		h, err := cache.NewHierarchy(cache.DefaultParams())
		if err != nil {
			return err
		}
		proc, err := core.NewProcessor(core.DefaultConfig(d.scheme, d.contexts), h, fm)
		if err != nil {
			return err
		}

		var stamps []int64
		proc.MemWatch = func(op isa.Op, addr, v uint32, ctx int, now int64) {
			if op == isa.SW && addr == responseFlagAddr {
				stamps = append(stamps, now)
			}
		}

		fgThread := core.NewThread("fg", fg)
		bgThread := core.NewThread("bg", bgProg)

		if d.contexts >= 2 {
			proc.BindThread(0, bgThread)
			proc.BindThread(1, fgThread)
			for len(stamps) < cfg.Bursts+2 {
				if cerr := ctx.Err(); cerr != nil {
					return guard.NewSimError(guard.OpCanceled, cerr).At(proc.Now())
				}
				proc.Run(cfg.SliceCycles)
				if proc.Now() > 1_000_000_000 {
					return fmt.Errorf("experiments: response run did not converge")
				}
			}
		} else {
			// OS timesharing: the foreground gets one slice, the batch
			// job two (its affinity share of a busy machine).
			turn := 0
			for len(stamps) < cfg.Bursts+2 {
				if cerr := ctx.Err(); cerr != nil {
					return guard.NewSimError(guard.OpCanceled, cerr).At(proc.Now())
				}
				if turn%3 == 0 {
					proc.BindThread(0, fgThread)
				} else {
					proc.BindThread(0, bgThread)
				}
				proc.Run(cfg.SliceCycles)
				turn++
				if proc.Now() > 1_000_000_000 {
					return fmt.Errorf("experiments: response run did not converge")
				}
			}
		}

		// Response latency = inter-stamp period minus the think time
		// (the burst starts when the backoff expires).
		var lat []int64
		for i := 1; i < len(stamps); i++ {
			l := stamps[i] - stamps[i-1] - int64(cfg.ThinkCycles)
			if l < 0 {
				l = 0
			}
			lat = append(lat, l)
		}
		if len(lat) == 0 {
			return fmt.Errorf("experiments: no responses measured for %s", d.name)
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		var sum int64
		for _, l := range lat {
			sum += l
		}
		cells[i] = ResponseCell{
			Name:   d.name,
			Mean:   float64(sum) / float64(len(lat)),
			Median: lat[len(lat)/2],
			P90:    lat[len(lat)*9/10],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	return res, nil
}

// FormatResponse renders the response-time table.
func FormatResponse(r *ResponseResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Interactive response (§5.1): %d-instruction bursts every %d cycles\n",
		r.Cfg.BurstInstructions, r.Cfg.ThinkCycles)
	fmt.Fprintf(&b, "against a %s background job; latency from wake-up to completion\n\n", r.Cfg.Background)
	t := stats.NewTable("design", "mean (cycles)", "median", "p90")
	for _, c := range r.Cells {
		t.AddRow(c.Name, fmt.Sprintf("%.0f", c.Mean), fmt.Sprint(c.Median), fmt.Sprint(c.P90))
	}
	b.WriteString(t.String())
	return b.String()
}

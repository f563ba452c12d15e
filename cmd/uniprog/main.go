// Command uniprog runs one multiprogrammed workstation workload under one
// or more scheme/context configurations and prints the utilization
// breakdown — the building block of the paper's Table 7 and Figures 6-7.
//
// Usage:
//
//	uniprog -workload DC -scheme interleaved -contexts 4
//	uniprog -apps doduc,emit -scheme blocked -contexts 2
//	uniprog -workload DC -scheme interleaved -contexts 1,2,4 -j 4
//
// A comma-separated -contexts list fans the runs out across -j workers
// (default: all CPUs) and prints them in list order; -j 1 runs serially.
//
// SIGINT/SIGTERM drain the run gracefully: queued configurations are
// skipped, running simulations stop within a bounded number of simulated
// cycles, completed configurations are still printed, and the command
// exits with code 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/stats"
	"repro/internal/workstation"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// completedHook, when non-nil, is called after configuration i's
// simulation completes (before any reporting). The drain tests use it to
// raise SIGINT partway through a -contexts list.
var completedHook func(i int)

// run is main with an explicit exit code so the signal-drain path is
// testable in-process: 0 success, 1 failure, 2 usage, 3 interrupted.
func run(args []string) int {
	fs := flag.NewFlagSet("uniprog", flag.ContinueOnError)
	workload := fs.String("workload", "DC", "Table 5 workload (IC DC DT FP R0 R1 SP)")
	appList := fs.String("apps", "", "comma-separated kernel names (overrides -workload)")
	scheme := fs.String("scheme", "interleaved", "context scheme")
	contexts := fs.String("contexts", "4", "hardware contexts (comma-separated list fans out)")
	slice := fs.Int64("slice", 60_000, "scheduler time slice in cycles")
	rotations := fs.Int("rotations", 2, "measured scheduler rotations")
	jobs := fs.Int("j", runtime.NumCPU(), "concurrent simulations for a -contexts list (1 = serial)")
	gopts := guard.BindFlags(fs)
	prof := profiling.BindFlags(fs)
	obs := metrics.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}

	// On failure, print the structured diagnostic (when the error carries
	// one) instead of a raw panic stack, and exit non-zero.
	die := func(err error) int {
		fmt.Fprintln(os.Stderr, "uniprog:", guard.Report(err))
		return experiments.ExitFailure
	}

	// SIGINT/SIGTERM cancel this context; the pool drains and the
	// simulation loops observe the cancellation at block granularity.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProf, err := prof.Start()
	if err != nil {
		return die(err)
	}
	defer stopProf()

	sc, err := core.ParseScheme(*scheme)
	if err != nil {
		return die(err)
	}
	var counts []int
	for _, c := range strings.Split(*contexts, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil || n < 1 {
			return die(fmt.Errorf("bad -contexts value %q", c))
		}
		if sc == core.Single {
			n = 1
		}
		counts = append(counts, n)
	}

	var kernels []apps.Kernel
	if *appList != "" {
		for _, n := range strings.Split(*appList, ",") {
			k, err := apps.Lookup(strings.TrimSpace(n))
			if err != nil {
				return die(err)
			}
			kernels = append(kernels, k)
		}
	} else {
		kernels, err = experiments.ResolveWorkload(*workload)
		if err != nil {
			return die(err)
		}
	}

	// Fan the configurations out; results land in run order so the report
	// below is independent of completion order.
	results := make([]*workstation.Result, len(counts))
	err = experiments.NewPool(*jobs).Run(ctx, len(counts), func(ctx context.Context, i int) error {
		cfg := workstation.DefaultConfig(sc, counts[i])
		cfg.OS.SliceCycles = *slice
		cfg.MeasureRotations = *rotations
		cfg.Guard = *gopts
		cfg.Obs = obs.Options()
		r, err := workstation.RunCtx(ctx, kernels, cfg)
		if err != nil {
			return err
		}
		results[i] = r
		if completedHook != nil {
			completedHook(i)
		}
		return nil
	})
	interrupted := err != nil && guard.IsCancellation(err) && ctx.Err() != nil
	if err != nil && !interrupted {
		return die(err)
	}

	printed := 0
	for i, res := range results {
		if res == nil {
			continue // interrupted before this configuration completed
		}
		if printed > 0 {
			fmt.Println()
		}
		printed++
		report(len(kernels), sc, counts[i], res)
		// With a -contexts list, each configuration gets its own suffixed
		// output file; a single run writes the paths as given.
		suffix := ""
		if len(counts) > 1 {
			suffix = fmt.Sprintf("%dctx", counts[i])
		}
		label := fmt.Sprintf("%s-%v-%dctx", *workload, sc, counts[i])
		if err := obs.Write(res.Metrics, label, suffix); err != nil {
			return die(err)
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "uniprog: interrupted; %d of %d configurations completed\n", printed, len(counts))
		return experiments.ExitInterrupted
	}
	return 0
}

func report(nkernels int, sc core.Scheme, contexts int, res *workstation.Result) {
	fmt.Printf("workload: %d applications, scheme %v, %d context(s), %d cycles measured\n\n",
		nkernels, sc, contexts, res.Stats.Cycles)
	bd := res.Stats.Breakdown()
	t := stats.NewTable("category", "fraction")
	t.AddRow("busy", stats.Pct(bd.Busy+bd.Sync))
	t.AddRow("instruction stall", stats.Pct(bd.InstrShort+bd.InstrLong))
	t.AddRow("inst cache", stats.Pct(bd.InstCache))
	t.AddRow("data cache/TLB", stats.Pct(bd.DataMem))
	t.AddRow("context switch", stats.Pct(bd.Switch))
	t.AddRow("idle", stats.Pct(bd.Idle))
	fmt.Println(t.String())

	fmt.Printf("\nprocessor busy fraction:       %.3f\n", res.Throughput)
	fmt.Printf("fair-normalized throughput:    %.3f insts/cycle\n\n", res.FairThroughput)
	at := stats.NewTable("application", "retired", "devoted cycles", "insts/devoted-cycle")
	for _, a := range res.Apps {
		eff := 0.0
		if a.Devoted > 0 {
			eff = float64(a.Retired) / float64(a.Devoted)
		}
		at.AddRow(a.Name, fmt.Sprint(a.Retired), fmt.Sprint(a.Devoted), fmt.Sprintf("%.3f", eff))
	}
	fmt.Println(at.String())
}

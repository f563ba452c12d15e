// Command mpsim runs one SPLASH-like application on the simulated
// multiprocessor and prints its execution time and breakdown — the
// building block of the paper's Table 10 and Figures 8-9.
//
// Usage:
//
//	mpsim -app mp3d -scheme interleaved -contexts 4 -procs 8
//	mpsim -app mp3d -scheme interleaved -contexts 1,2,4,8 -j 4
//
// A comma-separated -contexts list fans the runs out across -j workers
// (default: all CPUs) and prints them in list order; -j 1 runs serially.
//
// SIGINT/SIGTERM drain the run gracefully: queued configurations are
// skipped, running simulations stop within one lockstep block, completed
// configurations are still printed, and the command exits with code 3.
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

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/mp"
	"repro/internal/profiling"
	"repro/internal/splash"
	"repro/internal/stats"
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
	fs := flag.NewFlagSet("mpsim", flag.ContinueOnError)
	appName := fs.String("app", "mp3d", "application (mp3d barnes water ocean locus pthor cholesky)")
	scheme := fs.String("scheme", "interleaved", "context scheme")
	contexts := fs.String("contexts", "4", "hardware contexts per processor (comma-separated list fans out)")
	procs := fs.Int("procs", 8, "processors")
	steps := fs.Int("steps", 0, "time steps (0 = app default)")
	limit := fs.Int64("limit", 200_000_000, "cycle limit")
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
		fmt.Fprintln(os.Stderr, "mpsim:", guard.Report(err))
		return experiments.ExitFailure
	}

	// SIGINT/SIGTERM cancel this context; the pool drains and the
	// simulation loop observes the cancellation at block granularity.
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
	app, err := splash.Lookup(*appName)
	if err != nil {
		return die(err)
	}

	// Fan the configurations out; results land in run order so the report
	// below is independent of completion order. With -chaos, each
	// configuration also runs unperturbed and the final memory is asserted
	// byte-identical: timing faults must never leak into functional state.
	// (Racy apps — mp3d's unsynchronized scatter — are exempt: their memory
	// results are scheduling-dependent by construction.)
	results := make([]*mp.Result, len(counts))
	err = experiments.NewPool(*jobs).Run(ctx, len(counts), func(ctx context.Context, i int) error {
		cfg := mp.DefaultConfig(sc, counts[i])
		cfg.Processors = *procs
		cfg.LimitCycles = *limit
		cfg.Guard = *gopts
		cfg.Obs = obs.Options()
		p := app.Program(splash.MPOptions(sc, *procs*counts[i], *steps, 0))
		res, err := mp.RunCtx(ctx, p, cfg)
		if err != nil {
			return err
		}
		if !res.Completed {
			return fmt.Errorf("%s did not complete within %d cycles", *appName, *limit)
		}
		if gopts.ChaosSeed != 0 && !app.Racy {
			baseCfg := cfg
			baseCfg.Guard.ChaosSeed = 0
			base, err := mp.RunCtx(ctx, p, baseCfg)
			if err != nil {
				return fmt.Errorf("chaos reference run: %w", err)
			}
			if base.MemHash != res.MemHash {
				return fmt.Errorf("chaos divergence with %d context(s): perturbed memory hash %#x != reference %#x — timing state leaked into functional state",
					counts[i], res.MemHash, base.MemHash)
			}
		}
		results[i] = res
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
		fmt.Printf("%s: %d processors x %d context(s) (%d threads), scheme %v\n",
			*appName, *procs, counts[i], res.Threads, sc)
		fmt.Printf("execution time: %d cycles\n", res.Cycles)
		if gopts.ChaosSeed != 0 {
			if app.Racy {
				fmt.Printf("chaos seed %d: byte-identity not checked (%s has unsynchronized shared writes)\n",
					gopts.ChaosSeed, *appName)
			} else {
				fmt.Printf("chaos seed %d: memory results byte-identical to unperturbed run (hash %#x)\n",
					gopts.ChaosSeed, res.MemHash)
			}
		}
		fmt.Println()

		bd := res.Stats.Breakdown()
		t := stats.NewTable("category", "fraction")
		t.AddRow("busy", stats.Pct(bd.Busy))
		t.AddRow("instruction (short)", stats.Pct(bd.InstrShort))
		t.AddRow("instruction (long)", stats.Pct(bd.InstrLong))
		t.AddRow("memory", stats.Pct(bd.DataMem))
		t.AddRow("synchronization", stats.Pct(bd.Sync))
		t.AddRow("context switch", stats.Pct(bd.Switch))
		t.AddRow("idle", stats.Pct(bd.Idle))
		fmt.Println(t.String())

		// With a -contexts list, each configuration gets its own suffixed
		// output file; a single run writes the paths as given.
		suffix := ""
		if len(counts) > 1 {
			suffix = fmt.Sprintf("%dctx", counts[i])
		}
		label := fmt.Sprintf("%s-%v-%dctx", *appName, sc, counts[i])
		if err := obs.Write(res.Metrics, label, suffix); err != nil {
			return die(err)
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "mpsim: interrupted; %d of %d configurations completed\n", printed, len(counts))
		return experiments.ExitInterrupted
	}
	return 0
}

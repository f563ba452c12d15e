// Command interleavefuzz is the cross-scheme differential interleaving
// fuzzer: it generates race-free SPMD programs, runs each under
// systematically varied context orderings across every scheme and
// machine model, and fails if final memory (or any stricter digest) ever
// depends on the multiplexing policy.
//
// Usage:
//
//	interleavefuzz [-n N] [-seed S] [-j N] [-quick] [-corpus DIR] [-json FILE]
//	interleavefuzz -replay <reproducer dir or repro.json>
//
// A sweep generates -n programs from the base seed and fans each
// program's cell grid (orderings × schemes × machines × fast-forward ×
// chaos) across -j workers; output is byte-identical at every -j.
// -corpus enables shrinking: a failing program is minimized and written
// as a reproducer (repro.json + re-assemblable repro.s). -replay re-runs
// a reproducer's exact cell grid and reports its divergences.
//
// Exit codes follow the repo convention: 0 clean, 1 divergence or cell
// failure, 2 usage, 3 interrupted (SIGINT/SIGTERM drain).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/fuzz"
	"repro/internal/guard"
	"repro/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("interleavefuzz", flag.ContinueOnError)
	n := fs.Int("n", 24, "programs to generate and sweep")
	seed := fs.Int64("seed", 20260808, "base seed (per-program seeds are derived)")
	threads := fs.Int("threads", 0, "threads per program (0: vary 2..4)")
	jobs := fs.Int("j", runtime.NumCPU(), "concurrent simulation cells (1 = serial)")
	quick := fs.Bool("quick", false, "reduced per-program cell grid")
	corpus := fs.String("corpus", "", "shrink failures and write reproducers under this directory")
	jsonOut := fs.String("json", "", "also write the report as JSON to this file")
	replay := fs.String("replay", "", "replay a reproducer (directory or repro.json) instead of sweeping")
	mut := fs.String("mut", "", "testing: inject a scheme-breaking mutation into every program (tas-plain)")
	maxCycles := fs.Int64("limit", 0, "per-cell cycle budget (0: default)")
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "interleavefuzz: unexpected arguments: %v\n", fs.Args())
		return experiments.ExitUsage
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "interleavefuzz: -j %d: need at least one concurrent cell\n", *jobs)
		return experiments.ExitUsage
	}

	cfg := fuzz.SweepConfig{
		Programs:    *n,
		BaseSeed:    *seed,
		Threads:     *threads,
		Parallelism: *jobs,
		Quick:       *quick,
		CorpusDir:   *corpus,
		Limits:      fuzz.Limits{MaxCycles: *maxCycles},
		Mut:         *mut,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "interleavefuzz:", err)
		return experiments.ExitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replay != "" {
		return runReplay(ctx, *replay, *quick, *jobs, cfg.Limits, *jsonOut)
	}
	rep, err := fuzz.Sweep(ctx, cfg)
	rep.Render(os.Stdout)
	if *jsonOut != "" {
		if werr := writeJSON(*jsonOut, rep); werr != nil {
			fmt.Fprintln(os.Stderr, "interleavefuzz:", werr)
			return experiments.ExitFailure
		}
	}
	if err != nil {
		if guard.IsCancellation(err) || rep.Interrupted {
			fmt.Fprintln(os.Stderr, "interleavefuzz: interrupted:", guard.Report(err))
			return experiments.ExitInterrupted
		}
		fmt.Fprintln(os.Stderr, "interleavefuzz:", err)
		return experiments.ExitFailure
	}
	if !rep.Clean() {
		return experiments.ExitFailure
	}
	return experiments.ExitSuccess
}

// runReplay re-runs a persisted reproducer's exact cell grid.
func runReplay(ctx context.Context, path string, quick bool, jobs int, lim fuzz.Limits, jsonOut string) int {
	rep, err := fuzz.LoadReproducer(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "interleavefuzz:", err)
		return experiments.ExitFailure
	}
	spec := rep.Spec
	pool := experiments.NewPool(jobs)
	cells, results, err := fuzz.RunProgram(ctx, spec, quick, lim, pool)
	if err != nil {
		if guard.IsCancellation(err) || ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interleavefuzz: interrupted:", guard.Report(err))
			return experiments.ExitInterrupted
		}
		fmt.Fprintln(os.Stderr, "interleavefuzz:", err)
		return experiments.ExitFailure
	}
	divs := fuzz.Check(cells, results)
	var cellErrs []string
	for _, r := range results {
		if r != nil && r.Err != "" {
			cellErrs = append(cellErrs, r.Key+": "+r.Err)
		}
	}
	fmt.Printf("replay %s: seed %d, threads %d, %d items, %d cells\n",
		spec.Name(), spec.Seed, spec.Threads, spec.Items(), len(cells))
	if spec.Mut != "" {
		fmt.Printf("injected mutation: %s\n", spec.Mut)
	}
	for _, e := range cellErrs {
		fmt.Printf("  error: %s\n", e)
	}
	for _, d := range divs {
		fmt.Printf("  divergence: %s\n", d)
	}
	if jsonOut != "" {
		out := struct {
			Spec        *fuzz.Spec        `json:"spec"`
			Cells       int               `json:"cells"`
			Divergences []fuzz.Divergence `json:"divergences,omitempty"`
			CellErrors  []string          `json:"cell_errors,omitempty"`
		}{spec, len(cells), divs, cellErrs}
		if err := writeJSON(jsonOut, out); err != nil {
			fmt.Fprintln(os.Stderr, "interleavefuzz:", err)
			return experiments.ExitFailure
		}
	}
	if len(divs) > 0 || len(cellErrs) > 0 {
		fmt.Printf("divergence reproduced (%d divergences, %d cell errors)\n", len(divs), len(cellErrs))
		return experiments.ExitFailure
	}
	fmt.Println("clean: no divergence")
	return experiments.ExitSuccess
}

func writeJSON(path string, v any) error {
	return metrics.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

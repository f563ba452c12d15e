// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-j N] [-only table7,table10,...]
//	experiments [-quick] [-j N] -subjects DC,ocean [-schemes interleaved] [-contexts 2,4]
//
// With no -only flag every experiment runs (a few minutes at full scale;
// seconds with -quick); -h lists the names -only takes, and any other
// name is a usage error. Independent simulation cells fan out across -j
// workers (default: all CPUs); -j 1 is the serial path. Output is
// byte-identical at every -j.
//
// -subjects, -schemes and -contexts narrow the Table 7 / Table 10 grids
// to a subset grid: the named workload mixes and applications, each
// with its single-context baseline, under the named schemes and context
// counts. A grid none of whose subjects is named is left out. A subset
// grid is an ordinary grid — journal, -cell-timeout, -metrics-out and
// the FAIL/SKIP rendering all apply — but its cells derive their seeds
// from their index in the subset, so a subset cell is not the full
// grid's cell of the same name. With -chaos, every multiprocessor cell
// of a race-free application also runs unperturbed and fails unless its
// final memory is identical.
//
// Sensitivity sweeps whose swept parameter takes effect at the
// warm-up/measure boundary (switch cost, MSHRs) simulate their shared
// warm-up once and fork every cell from the checkpoint — byte-identical
// to, and faster than, simulating each warm-up. -no-checkpoint disables
// the sharing; -checkpoint-dir persists the checkpoints across runs.
//
// Crash safety: -journal records every completed grid cell durably
// (fsync per cell); -resume replays a journal's cells and simulates only
// the remainder, producing byte-identical output to an uninterrupted
// run. SIGINT/SIGTERM drain the run gracefully — queued cells are
// skipped, running cells stop within a bounded number of simulated
// cycles, completed work is flushed — and the command exits with code 3.
// Exit codes: 0 success, 1 cell failure or other error, 2 usage,
// 3 interrupted, 4 journal fingerprint mismatch.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// interruptSignal is what -interrupt-after raises; the drain tests
// switch it to SIGTERM.
var interruptSignal os.Signal = os.Interrupt

// run is main with an explicit exit code so failure paths are testable:
// every error — including a failed -json write, which used to os.Exit
// from inside a defer and skip the profile flush — propagates a non-zero
// code through the normal return path, after all defers have run.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	gridFlags := experiments.BindGridFlags(fs)
	jsonOut := fs.String("json", "", "also write raw results as JSON to this file")
	journalPath := fs.String("journal", "", "record completed grid cells to this journal file (crash-safe; overwrites)")
	resumePath := fs.String("resume", "", "resume from this journal: replay its cells, run only the remainder, keep appending")
	allowBinaryMismatch := fs.Bool("allow-binary-mismatch", false, "resume a journal written by a different binary when the configuration is identical")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell wall-clock budget; a cell exceeding it is retried once at a doubled budget, then fails (0 = off)")
	checkpointDir := fs.String("checkpoint-dir", "", "persist sweep warm-up checkpoints in this directory and reuse them across runs (default: in-memory only)")
	noCheckpoint := fs.Bool("no-checkpoint", false, "disable warm-up sharing: every sweep cell simulates its own warm-up")
	interruptAfter := fs.Int("interrupt-after", 0, "testing: raise SIGINT after this many journal appends")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	gopts := guard.BindFlags(fs)
	obs := metrics.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if *journalPath != "" && *resumePath != "" {
		fmt.Fprintln(os.Stderr, "experiments: -journal and -resume are mutually exclusive (resume keeps appending to the resumed journal)")
		return experiments.ExitUsage
	}
	onlyList, ucfg, mcfg, err := gridFlags.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return experiments.ExitUsage
	}

	fail := func(err error) int {
		var fpErr *experiments.FingerprintError
		var binErr *experiments.BinaryMismatchError
		switch {
		case errors.As(err, &fpErr), errors.As(err, &binErr):
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return experiments.ExitFingerprintMismatch
		case guard.IsCancellation(err):
			fmt.Fprintln(os.Stderr, "experiments: interrupted:", guard.Report(err))
			return experiments.ExitInterrupted
		}
		fmt.Fprintln(os.Stderr, "experiments:", guard.Report(err))
		return experiments.ExitFailure
	}

	// SIGINT/SIGTERM cancel this context: grids drain (running cells stop
	// within a bounded cycle count, queued ones never start), completed
	// work is flushed below, and the command exits ExitInterrupted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	// The JSON dump is written last (but before the profile flush above,
	// defers being LIFO), so a failing or interrupted grid still records
	// every completed cell; a failed write makes the command exit
	// non-zero. The write is atomic (temp + rename), so an existing file
	// survives any mid-write crash intact.
	jsonBlob := map[string]any{}
	defer func() {
		if *jsonOut == "" || len(jsonBlob) == 0 {
			return
		}
		data, err := json.MarshalIndent(jsonBlob, "", "  ")
		if err == nil {
			err = metrics.WriteFileAtomic(*jsonOut, func(w io.Writer) error {
				_, werr := w.Write(data)
				return werr
			})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: json:", err)
			if code == 0 {
				code = experiments.ExitFailure
			}
			return
		}
		fmt.Fprintf(os.Stderr, "[raw results written to %s]\n", *jsonOut)
	}()

	sel := experiments.Selection(onlyList)
	ucfg.CellTimeout = *cellTimeout
	mcfg.CellTimeout = *cellTimeout
	ucfg.Guard = *gopts
	mcfg.Guard = *gopts
	ucfg.Obs = obs.Options()
	mcfg.Obs = obs.Options()
	ucfg.Checkpoint = experiments.CheckpointOptions{Disabled: *noCheckpoint, Dir: *checkpointDir}
	if *checkpointDir != "" && !*noCheckpoint {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return fail(err)
		}
	}

	// The grids the selection runs, and the fingerprint of that run: it
	// covers everything that determines cell results — the resolved grid
	// configs (shapes, seeds, guard/chaos flags), the experiment
	// selection, and the binary. Resuming under any drift is a hard error —
	// replayed cells would silently disagree with what this run would
	// simulate.
	grids, fp, err := experiments.Grids(onlyList, &ucfg, &mcfg)
	if err != nil {
		return fail(err)
	}
	var journal *experiments.Journal
	if *journalPath != "" || *resumePath != "" {
		if *resumePath != "" {
			journal, err = experiments.OpenJournalAllow(*resumePath, fp, *allowBinaryMismatch, func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "experiments: warning: "+format+"\n", args...)
			})
			if err == nil {
				fmt.Fprintf(os.Stderr, "[resuming from %s: %d completed cells to replay]\n", *resumePath, journal.Cells())
			}
		} else {
			journal, err = experiments.CreateJournal(*journalPath, fp)
		}
		if err != nil {
			return fail(err)
		}
		defer journal.Close()
		if *interruptAfter > 0 {
			// Test harness for the interrupt-resume determinism check:
			// deliver a real signal to ourselves partway through the grid,
			// exercising the same path an operator's Ctrl-C does, and hold
			// the appending cell until the run has seen it — so at -j 1 no
			// further cell completes.
			var once sync.Once
			n := *interruptAfter
			journal.SetAppendHook(func(appended int) {
				if appended >= n {
					once.Do(func() {
						p, _ := os.FindProcess(os.Getpid())
						p.Signal(interruptSignal)
						<-ctx.Done()
					})
				}
			})
		}
	}

	if sel("table4") {
		r, err := experiments.Table4()
		if err != nil {
			return fail(err)
		}
		jsonBlob["table4"] = r
		fmt.Println(experiments.FormatTable4(r))
		fmt.Println()
	}

	if sel("fig2") || sel("fig3") {
		if sel("fig2") {
			b, i, err := experiments.Figure2()
			if err != nil {
				return fail(err)
			}
			fmt.Println("Figure 2: switch cost of a data miss with four active contexts")
			fmt.Printf("(blocked pays %d switch slots, interleaved %d)\n\n",
				b.Stats.Slots[core.SlotSwitch], i.Stats.Slots[core.SlotSwitch])
			fmt.Print(experiments.FormatTimeline(b))
			fmt.Print(experiments.FormatTimeline(i))
			fmt.Println()
		}
		if sel("fig3") {
			b, i, err := experiments.Figure3()
			if err != nil {
				return fail(err)
			}
			fmt.Println("Figure 3: four example threads (A:2, B:3 with dependency, C:4, D:6 insns),")
			fmt.Println("each ending in a cache miss")
			fmt.Println()
			fmt.Print(experiments.FormatTimeline(b))
			fmt.Print(experiments.FormatTimeline(i))
			fmt.Printf("\nblocked finishes in %d cycles, interleaved in %d\n\n", b.Cycles, i.Cycles)
		}
	}

	// Each grid prints its sections through its own renderer, the one a
	// distributed run of the same grid assembles with, so the two agree
	// byte for byte.
	for _, g := range grids {
		start := time.Now()
		rep, err := g.Run(ctx, journal)
		if err != nil {
			return fail(err)
		}
		jsonBlob[g.Name()] = rep.Value
		fmt.Fprintf(os.Stderr, "[%s evaluation: %v]\n", g.Name(), time.Since(start).Round(time.Millisecond))
		for _, c := range rep.Cells {
			if c.Failed {
				fmt.Fprintf(os.Stderr, "experiments: %s cell %s/%v/%d FAILED: %s\n",
					g.Name(), c.Subject, c.Scheme, c.Contexts, c.Failure)
				if c.Diagnostic != "" {
					fmt.Fprintln(os.Stderr, c.Diagnostic)
				}
				code = experiments.ExitFailure
			}
		}
		if rep.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %s grid interrupted: %d cells skipped\n", g.Name(), rep.Skipped)
		}
		if err := writeGridMetrics(obs, g.Name(), rep.Cells); err != nil {
			return fail(err)
		}
		fmt.Print(rep.Text)
	}

	// The remaining sections have no SKIP rendering of their own; once
	// the run is interrupted, skip them outright rather than starting
	// work that would drain immediately.
	skipInterrupted := func(name string) bool {
		if ctx.Err() == nil {
			return false
		}
		fmt.Fprintf(os.Stderr, "[skipping %s: interrupted]\n", name)
		return true
	}

	if sel("ablations") && !skipInterrupted("ablations") {
		start := time.Now()
		r, err := experiments.RunAblationsCtx(ctx, ucfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "[ablations: %v]\n", time.Since(start).Round(time.Millisecond))
		fmt.Println(experiments.FormatAblations(r))
	}

	if sel("response") && !skipInterrupted("response") {
		rcfg := experiments.DefaultResponseConfig()
		rcfg.Parallelism = gridFlags.Jobs
		r, err := experiments.RunResponseCtx(ctx, rcfg)
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatResponse(r))
		fmt.Println()
	}

	if sel("sweeps") && !skipInterrupted("sweeps") {
		start := time.Now()
		sweepBlob := map[string]*experiments.SweepResult{}
		runSweep := func(key string, run func() (*experiments.SweepResult, error)) error {
			r, err := run()
			if err != nil {
				return err
			}
			sweepBlob[key] = r
			fmt.Println(experiments.FormatSweep(r))
			fmt.Println()
			return nil
		}
		if err := runSweep("switch_cost", func() (*experiments.SweepResult, error) {
			return experiments.SwitchCostSweepCtx(ctx, ucfg, "DC")
		}); err != nil {
			return fail(err)
		}
		if err := runSweep("context_count", func() (*experiments.SweepResult, error) {
			return experiments.ContextCountSweepCtx(ctx, ucfg, "DC")
		}); err != nil {
			return fail(err)
		}
		if err := runSweep("mshr", func() (*experiments.SweepResult, error) {
			return experiments.MSHRSweepCtx(ctx, ucfg, "DC")
		}); err != nil {
			return fail(err)
		}
		if err := runSweep("remote_latency", func() (*experiments.SweepResult, error) {
			return experiments.RemoteLatencySweepCtx(ctx, mcfg, "ocean")
		}); err != nil {
			return fail(err)
		}
		if err := runSweep("issue_width", func() (*experiments.SweepResult, error) {
			return experiments.IssueWidthSweepCtx(ctx, ucfg, "R1")
		}); err != nil {
			return fail(err)
		}
		jsonBlob["sweeps"] = sweepBlob
		if r, err := experiments.RunPrefetchComparisonCtx(ctx, ucfg); err != nil {
			return fail(err)
		} else {
			fmt.Println(experiments.FormatPrefetchComparison(r))
		}
		fmt.Fprintf(os.Stderr, "[sweeps: %v]\n", time.Since(start).Round(time.Millisecond))
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; completed cells were flushed"+
			resumeHint(*journalPath, *resumePath))
		return experiments.ExitInterrupted
	}
	return code
}

// resumeHint names the journal an interrupted run can be resumed from.
func resumeHint(journalPath, resumePath string) string {
	switch {
	case journalPath != "":
		return fmt.Sprintf(" (resume with -resume %s)", journalPath)
	case resumePath != "":
		return fmt.Sprintf(" (resume with -resume %s)", resumePath)
	}
	return ""
}

// writeGridMetrics exports a grid's observability records: every cell
// concatenates into one JSON-lines file (each introduced by its "cell"
// delimiter line), while traces — one Chrome trace JSON object per cell —
// go to individually suffixed files. prefix keeps the workstation and
// multiprocessor grids from overwriting each other's output. All files
// are written atomically (temp + rename).
func writeGridMetrics(f *metrics.Flags, prefix string, cells []experiments.CellReport) error {
	label := func(c experiments.CellReport) string {
		return fmt.Sprintf("%s-%v-%dctx", c.Subject, c.Scheme, c.Contexts)
	}
	if f.MetricsOut != "" {
		err := metrics.WriteFileAtomic(metrics.SuffixPath(f.MetricsOut, prefix), func(w io.Writer) error {
			for _, c := range cells {
				if c.Metrics == nil {
					continue
				}
				if err := metrics.WriteJSONL(w, c.Metrics, label(c)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if f.TraceOut != "" {
		for _, c := range cells {
			if c.Metrics == nil {
				continue
			}
			err := metrics.WriteFileAtomic(metrics.SuffixPath(f.TraceOut, prefix+"."+label(c)), func(w io.Writer) error {
				return metrics.WriteChromeTrace(w, c.Metrics)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// startProfiles begins CPU profiling when cpu names a file and returns a
// stop function that finishes that profile and writes a heap profile to
// mem, when it names one. The profiles diagnose hot-path regressions on
// any grid run without code edits:
//
//	experiments -quick -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem == "" {
			return
		}
		mf, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "profiling:", err)
			return
		}
		defer mf.Close()
		runtime.GC() // settle allocations so the heap profile is stable
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fmt.Fprintln(os.Stderr, "profiling:", err)
		}
	}, nil
}

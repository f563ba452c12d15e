// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-j N] [-only table7,table10,...]
//	experiments [-quick] [-j N] -subjects DC,ocean [-schemes interleaved] [-contexts 2,4]
//
// With no -only flag every experiment runs (about 11 s at -j 2 on a
// 2-vCPU Xeon; seconds with -quick); -h lists the names -only takes,
// and any other name is a usage error. Every section starts at once and
// submits its simulation cells to one queue of -j slots (default: all
// CPUs; -j 1 simulates one cell at a time), and the sections print in
// their fixed order. Each distinct cell is simulated once per run,
// however many sections report it. Output, -json included, is
// byte-identical at every -j: -j is no part of a result or a journal.
// The run ends with its cell counts on stderr: [cells: N simulated, F
// forked, S shared].
//
// -subjects, -schemes and -contexts narrow the Table 7 / Table 10 grids
// to a subset grid: the named workload mixes and applications, each
// with its single-context baseline, under the named schemes and context
// counts. A grid none of whose subjects is named is left out. A subset
// grid is an ordinary grid — journal, -cell-timeout, -metrics-out and
// the FAIL/SKIP rendering all apply — and each of its cells is the full
// grid's cell of the same name, because a cell's seed derives from its
// configuration alone. With -chaos, every multiprocessor cell of a
// race-free application also runs unperturbed and fails unless its
// final memory is identical.
//
// Sensitivity sweeps whose swept parameter takes effect at the
// warm-up/measure boundary (switch cost, MSHRs) simulate their shared
// warm-up once and fork every cell from the checkpoint — byte-identical
// to, and faster than, simulating each warm-up. A checkpoint lives in
// memory for the sweep that made it. -no-checkpoint disables the
// sharing.
//
// Crash safety: -journal records every completed grid cell durably
// (fsync per cell); -resume replays a journal's cells and simulates only
// the remainder, producing byte-identical output to an uninterrupted
// run. It replays only a journal of this format version, written under
// the same configuration by the same binary; any other exits 4.
// SIGINT/SIGTERM drain the run gracefully — queued cells are
// skipped, running cells stop within a bounded number of simulated
// cycles, completed work is flushed — and the command exits with code 3.
// Exit codes: 0 success, 1 cell failure or other error, 2 usage,
// 3 interrupted, 4 journal of another format version, configuration or
// binary.
package main

import (
	"cmp"
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
	"slices"
	"sync"
	"syscall"
	"time"

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
	jobs := fs.Int("j", runtime.NumCPU(), "concurrent simulation cells (1 = serial)")
	jsonOut := fs.String("json", "", "also write raw results as JSON to this file")
	journalPath := fs.String("journal", "", "record completed grid cells to this journal file (crash-safe; overwrites)")
	resumePath := fs.String("resume", "", "resume from this journal: replay its cells, run only the remainder, keep appending")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell wall-clock budget; a cell exceeding it is retried once at a doubled budget, then fails (0 = off)")
	noCheckpoint := fs.Bool("no-checkpoint", false, "disable warm-up sharing: every sweep cell simulates its own warm-up")
	interruptAfter := fs.Int("interrupt-after", 0, "testing: raise SIGINT after this many journal appends")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	gopts := guard.BindFlags(fs)
	obs := metrics.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -j %d: need at least one concurrent cell\n", *jobs)
		return experiments.ExitUsage
	}
	if *cellTimeout < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -cell-timeout %v: must be positive, or 0 for none\n", *cellTimeout)
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
		var stale *experiments.FingerprintError
		switch {
		case errors.As(err, &stale):
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return experiments.ExitFingerprintMismatch
		case guard.IsCancellation(err):
			fmt.Fprintln(os.Stderr, "experiments: interrupted:", guard.Report(err))
			return experiments.ExitInterrupted
		}
		fmt.Fprintln(os.Stderr, "experiments:", guard.Report(err))
		return experiments.ExitFailure
	}

	// The run ends with its cell counts on stderr: simulated from scratch,
	// forked from a shared warm-up, and shared through the run's memo.
	before := experiments.Cells()
	defer func() { fmt.Fprintln(os.Stderr, experiments.Cells().Sub(before)) }()

	// SIGINT/SIGTERM cancel this context: grids drain (running cells stop
	// within a bounded cycle count, queued ones never start), completed
	// work is flushed below, and the command exits ExitInterrupted. Every
	// section runs under one Run: each distinct cell is simulated once,
	// and the sections share the -j bound.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = experiments.NewRun(*jobs).Context(ctx)

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
	ucfg.Parallelism, mcfg.Parallelism = *jobs, *jobs
	ucfg.CellTimeout = *cellTimeout
	mcfg.CellTimeout = *cellTimeout
	ucfg.Guard = *gopts
	mcfg.Guard = *gopts
	ucfg.Obs = obs.Options()
	mcfg.Obs = obs.Options()
	ucfg.Checkpoint = experiments.CheckpointOptions{Disabled: *noCheckpoint}

	// The grids the selection runs, and the fingerprint of that run: it
	// covers everything that determines cell results — the resolved grid
	// configs (shapes, seeds, guard/chaos flags), the experiment
	// selection, and the binary. Resuming under any drift, the binary's
	// included, is a hard error — replayed cells might silently disagree
	// with what this run would simulate.
	grids, fp, err := experiments.Grids(onlyList, &ucfg, &mcfg)
	if err != nil {
		return fail(err)
	}
	var journal *experiments.Journal
	if *journalPath != "" || *resumePath != "" {
		if *resumePath != "" {
			journal, err = experiments.OpenJournal(*resumePath, fp)
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

	// Submit every selected section at once, in vocabulary order, and
	// print them in that order as each finishes. A grid runs once, at the
	// first of its sections the selection names, and prints its selected
	// sections through its own renderer — the one a distributed run of
	// the same grid assembles with, so the two agree byte for byte. Every
	// other section runs its row. The sections' cells share the run's -j
	// slots, so one section's tail overlaps the next one's cells. Once
	// the run is interrupted nothing more starts: a grid drains and
	// renders SKIP cells, a study that did not finish is skipped.
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel() // an early return stops the sections still running
	gridNamed := map[string]experiments.Grid{}
	for _, g := range grids {
		gridNamed[g.Name()] = g
	}
	var steps []*step
	for _, name := range experiments.Sections {
		st := &step{name: cmp.Or(experiments.GridOf(name), name), done: make(chan struct{}), start: time.Now()}
		if !sel(name) || slices.ContainsFunc(steps, func(o *step) bool { return o.name == st.name }) {
			continue
		}
		st.grid = gridNamed[st.name]
		steps = append(steps, st)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(st.done)
			if st.grid != nil {
				st.rep, st.err = st.grid.Run(ctx, journal)
			} else {
				st.value, st.text, st.err = experiments.RunSection(ctx, name, ucfg, mcfg)
			}
		}()
	}
	for _, st := range steps {
		<-st.done
		switch {
		case st.err != nil && guard.IsCancellation(st.err) && ctx.Err() != nil:
			fmt.Fprintf(os.Stderr, "[skipping %s: interrupted]\n", st.name)
			continue
		case st.err != nil:
			return fail(st.err)
		case st.grid != nil:
			failed, err := printGrid(st.name, st.rep, obs, jsonBlob)
			if err != nil {
				return fail(err)
			}
			if failed {
				code = experiments.ExitFailure
			}
		default:
			if st.value != nil {
				jsonBlob[st.name] = st.value
			}
			fmt.Print(st.text)
		}
		// From submission to output: sections overlap, so these do not
		// add up to the run's wall clock.
		fmt.Fprintf(os.Stderr, "[%s: %v]\n", st.name, time.Since(st.start).Round(time.Millisecond))
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; completed cells were flushed"+
			resumeHint(*journalPath, *resumePath))
		return experiments.ExitInterrupted
	}
	return code
}

// step is one section of a run, or one grid standing for its sections:
// submitted at start, printed once done.
type step struct {
	name  string
	grid  experiments.Grid // nil for a section outside the grids
	start time.Time
	done  chan struct{}

	rep   *experiments.GridReport
	value any
	text  string
	err   error
}

// printGrid records a grid's -json value, reports its failed and
// skipped cells on stderr, exports its observability records and prints
// its sections. failed reports whether any cell failed.
func printGrid(name string, rep *experiments.GridReport, obs *metrics.Flags, jsonBlob map[string]any) (failed bool, err error) {
	jsonBlob[name] = rep.Value
	for _, c := range rep.Cells {
		if c.Failed {
			fmt.Fprintf(os.Stderr, "experiments: %s cell %s/%v/%d FAILED: %s\n",
				name, c.Subject, c.Scheme, c.Contexts, c.Failure)
			if c.Diagnostic != "" {
				fmt.Fprintln(os.Stderr, c.Diagnostic)
			}
			failed = true
		}
	}
	if rep.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %s grid interrupted: %d cells skipped\n", name, rep.Skipped)
	}
	if err := writeGridMetrics(obs, name, rep.Cells); err != nil {
		return failed, err
	}
	fmt.Print(rep.Text)
	return failed, nil
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

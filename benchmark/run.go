package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// procStart is as close to process start as the benchmark can see;
// set-up time is measured from it.
var procStart = time.Now()

// minPasses is the floor on timed passes per run.
const minPasses = 3

// variantPasses is how many times the traced run repeats the plain pass,
// the pass under spans and each variant pass; a ratio of two of them
// compares their fastest repetitions.
var variantPasses = 3

// setupRuns is how many times a run sets the workload up, each time from
// a cold process start: once in this process, the rest in child
// processes that stop after the reference pass.
const setupRuns = 3

// builders maps workload names to their constructors.
var builders = map[string]func(seed int64, smoke bool) (*workload, error){
	"ws-table7":  wsTable7,
	"mp-table10": mpTable10,
	"core-stall": coreStall,
	"sweep-fork": sweepFork,
	"svc-grid":   svcGrid,
}

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	setup    bool   // a set-up child: stop after the reference pass
	spans    string // span file of the traced run
	out      string // JSONL file the result is appended to
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// measured names the metrics this run really took; a declared
	// per-layer metric outside it does not apply to the workload and
	// reads 0.
	measured map[string]bool
}

// record is one line of an -out file: a result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// runOne executes one run of one workload and returns its result. The
// human-readable account goes to log; the caller prints the result line.
func runOne(spec *benchSpec, o options, log io.Writer) (*result, error) {
	build, ok := builders[o.workload]
	if !ok || !spec.workload(o.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(spec), " "))
	}
	header(log, o)
	if o.smoke {
		// A functional check: shrink the bulk-timed calls and the probes'
		// cell-sized fixtures along with the workloads.
		probeMin = time.Millisecond
		probeUni = experiments.QuickUniConfig()
		variantPasses = 1
	}

	// Set-up: inputs from the seed, servers and expected output where
	// used, and the cold pass whose output every later pass must
	// reproduce byte for byte. Its units are the construction, each unit
	// of the pass, and the rest of the time since the process started.
	t0 := time.Now()
	w, err := build(o.seed, o.smoke)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	if w.close != nil {
		defer w.close()
	}
	built := time.Since(t0)
	cm := &meter{}
	t0 = time.Now()
	cold, err := w.pass(cm)
	if err != nil {
		return nil, fmt.Errorf("%s: cold pass: %w", o.workload, err)
	}
	coldDur := time.Since(t0)
	setup := append([]time.Duration{built}, cm.units...)
	setup = append(setup, time.Since(procStart)-sum(setup))
	ref := w.reference
	if ref == nil {
		ref = cold
	}
	attempted, failed := len(cold.cells), compare(ref, cold)
	fmt.Fprintf(log, "set-up %.3fs (construction %.3fs, cold pass %.3fs), %d cells, %d nominal simulated cycles\n",
		sum(setup).Seconds(), built.Seconds(), coldDur.Seconds(), len(ref.cells), ref.nominalCycles())
	if o.setup {
		if failed > 0 {
			return nil, fmt.Errorf("%s: %d of %d cells of the cold pass failed the correctness check", o.workload, failed, attempted)
		}
		line, err := json.Marshal(setup)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(log, string(line))
		return nil, nil
	}

	// timedPass returns the pass's units — every cell, assemble and
	// render call, then whatever the pass spent outside them — which sum
	// to its duration.
	timedPass := func(tr *tracer, parent int) ([]time.Duration, error) {
		runtime.GC() // outside the timed region
		m := &meter{tr: tr, parent: parent}
		t0 := time.Now()
		out, err := w.pass(m)
		rest := time.Since(t0)
		if err != nil {
			return nil, err
		}
		attempted += len(out.cells)
		failed += compare(ref, out)
		for _, u := range m.units {
			rest -= u
		}
		return append(m.units, rest), nil
	}

	values := map[string]float64{}
	if !o.trace {
		// Timed passes until the next one would overrun the budget; a
		// smoke run makes one.
		var passes [][]time.Duration
		var durs []float64
		var total float64
		need := minPasses
		if o.smoke {
			need = 1
		}
		for len(passes) < need || (!o.smoke && total+median(durs) <= o.seconds) {
			units, err := timedPass(nil, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: pass %d: %w", o.workload, len(passes)+1, err)
			}
			d := sum(units).Seconds()
			fmt.Fprintf(log, "pass %d: %.4fs\n", len(passes)+1, d)
			passes = append(passes, units)
			durs = append(durs, d)
			total += d
		}
		wall, err := floorPass(passes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		// The other set-ups, each in a process of its own so that whatever
		// a process pays once is paid every time. After the timed passes:
		// nothing of this run is being timed while they run.
		setups := [][]time.Duration{setup}
		for len(setups) < setupRuns && !o.smoke {
			units, err := setupChild(o)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up %d: %w", o.workload, len(setups)+1, err)
			}
			fmt.Fprintf(log, "set-up %d: %.3fs\n", len(setups)+1, sum(units).Seconds())
			setups = append(setups, units)
		}
		setupFloor, err := floorPass(setups)
		if err != nil {
			return nil, fmt.Errorf("%s: set-ups: %w", o.workload, err)
		}
		values["wall_s"] = wall.Seconds()
		values["sim_mcps"] = float64(ref.nominalCycles()) / wall.Seconds() / 1e6
		values["setup_s"] = setupFloor.Seconds()
		fmt.Fprintf(log, "P=%d timed passes of %d units; median pass %.4fs, fastest pass %.4fs\n",
			len(passes), len(passes[0]), median(durs), slices.Min(durs))
		return finish(spec.EndToEnd, values, attempted, failed, log)
	}

	// Traced run: plain timed passes alternating with the same pass under
	// spans, the workload's variant passes, then the layer probes.
	tr := newTracer()
	root := tr.begin("run", 0)
	var plain, spanned [][]time.Duration
	var passSpan int
	for i := 0; i < variantPasses; i++ {
		units, err := timedPass(nil, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: plain pass: %w", o.workload, err)
		}
		plain = append(plain, units)
		tr.pass = i + 1
		passSpan = tr.begin("pass", root)
		units, err = timedPass(tr, passSpan)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", o.workload, err)
		}
		tr.end(passSpan)
		spanned = append(spanned, units)
	}
	tr.end(root)
	base, err := floorPass(plain)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	traced, err := floorPass(spanned)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	values["bench.warmup_s"] = coldDur.Seconds()
	values["bench.trace_overhead_ratio"] = traced.Seconds() / base.Seconds()
	spanMetrics(tr, passSpan, ref, values)
	simMetrics(ref, values)

	if err := w.extras(&extraCtx{ref: ref, base: base, out: values}); err != nil {
		return nil, fmt.Errorf("%s: variant passes: %w", o.workload, err)
	}
	ns, err := bulk(func(n int) error {
		for i := 0; i < n; i++ {
			w.programs()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	values["prog.build_ms"] = ns * 1e-6
	if err := runProbes(o.seed, values); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	hostMetrics(values)

	spans := o.spans
	if spans == "" {
		spans = filepath.Join(scratchDir, "spans-"+o.workload+".json")
	}
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%d spans written to %s\n", len(tr.spans), spans)
	return finish(spec.PerLayer, values, attempted, failed, log)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// floorPass is the pass time with every unit at its fastest over the
// timed passes. Interference on the host only ever slows a unit down and
// comes and goes within milliseconds, so a whole pass never escapes it
// but a unit of ten milliseconds does in one pass of a few dozen: the sum
// of per-unit minima repeats two to three times better than the median or
// the minimum of whole-pass durations (README, "Noise").
func floorPass(passes [][]time.Duration) (time.Duration, error) {
	floor := slices.Clone(passes[0])
	for _, p := range passes[1:] {
		if len(p) != len(floor) {
			return 0, fmt.Errorf("passes have %d and %d units", len(floor), len(p))
		}
		for i, u := range p {
			floor[i] = min(floor[i], u)
		}
	}
	return sum(floor), nil
}

// finish checks the measured set against the declaration — every
// declared metric emitted, nothing undeclared — and prints it.
func finish(decls []metricDecl, values map[string]float64, attempted, failed int, log io.Writer) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}, measured: map[string]bool{}}
	declared := map[string]bool{}
	for _, m := range decls {
		declared[m.Name] = true
		v, ok := values[m.Name]
		if !ok && m.Bound != nil {
			return nil, fmt.Errorf("metric %s is declared in %s but was not measured", m.Name, specFile)
		}
		res.measured[m.Name] = ok
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured as %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(log, "%-40s %16.6g %s\n", m.Name, v, m.Unit)
	}
	var extra []string
	for name := range values {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured but not declared in %s: %s", specFile, strings.Join(extra, " "))
	}
	fmt.Fprintf(log, "ops %d  ops_failed %d\n", attempted, failed)
	return res, nil
}

// setupChild sets the workload up once more in a child process and
// returns the units it printed.
func setupChild(o options) ([]time.Duration, error) {
	var units []time.Duration
	err := runSelf(&units, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-setup-only")
	return units, err
}

// runSelf runs this binary with args and decodes the last line of its
// standard output into v.
func runSelf(v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return fmt.Errorf("last line of %s %s: %w", filepath.Base(exe), strings.Join(args, " "), err)
	}
	return nil
}

func workloadNames(spec *benchSpec) []string {
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// header records the run's hygiene: what would make two runs incomparable.
func header(log io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(log, "workload %s  seed %d  seconds %g  trace %v  smoke %v\n", o.workload, o.seed, o.seconds, o.trace, o.smoke)
	fmt.Fprintf(log, "parallelism 1 (serial closed loop)  GOMAXPROCS %d  nproc %d  %s  commit %s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
}

// simMetrics sums the simulated statistics of the reference pass. They
// are fixed by configuration and seed: a speed-only change must leave
// every one of them identical.
func simMetrics(ref *passOut, out map[string]float64) {
	var s core.Stats
	h := sha256.New()
	for _, c := range ref.cells {
		s.Add(&c.stats)
		io.WriteString(h, c.digest)
	}
	io.WriteString(h, ref.text)
	out["sim.cells"] = float64(len(ref.cells))
	out["sim.cycles"] = float64(s.Cycles)
	out["sim.insts"] = float64(s.Retired)
	out["sim.slots_busy"] = float64(s.Slots[core.SlotBusy] + s.Slots[core.SlotSyncBusy])
	out["sim.slots_dmem"] = float64(s.Slots[core.SlotDMem])
	out["sim.slots_stall"] = float64(s.Slots[core.SlotStallShort] + s.Slots[core.SlotStallLong] + s.Slots[core.SlotICache])
	out["sim.slots_switch"] = float64(s.Slots[core.SlotSwitch])
	out["sim.slots_sync"] = float64(s.Slots[core.SlotSync])
	// The leading 48 bits of the output's hash: exact in a float64.
	out["sim.output_digest"] = float64(binary.BigEndian.Uint64(h.Sum(nil)[:8]) >> 16)
}

// spanMetrics reduces the traced pass's spans: the median cell of each
// kind, host time per simulated node cycle on the multiprocessor, and
// the share of the pass not covered by its children.
func spanMetrics(tr *tracer, pass int, ref *passOut, out map[string]float64) {
	byName := map[string][]float64{}
	var mpTotal time.Duration
	for _, s := range tr.children(pass) {
		byName[s.Name] = append(byName[s.Name], s.dur().Seconds())
		if s.Name == "mp-cell" {
			mpTotal += s.dur()
		}
	}
	if ds := byName["ws-cell"]; len(ds) > 0 {
		out["workstation.cell_s_p50"] = median(ds)
	}
	if ds := byName["mp-cell"]; len(ds) > 0 {
		out["mp.cell_s_p50"] = median(ds)
	}
	var nodeCycles int64
	for _, c := range ref.cells {
		if c.kind == "mp" {
			nodeCycles += c.cycles * int64(c.nodes)
		}
	}
	if nodeCycles > 0 && mpTotal > 0 {
		out["mp.ns_per_node_cycle"] = float64(mpTotal.Nanoseconds()) / float64(nodeCycles)
	}
	out["bench.pass_self_ratio"] = tr.selfTime(pass).Seconds() / tr.spans[pass-1].dur().Seconds()
}

// hostMetrics reads what the process as a whole cost the host.
func hostMetrics(out map[string]float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
		out["host.cpu_s"] = tv(ru.Utime) + tv(ru.Stime)
		out["host.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["host.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	out["host.gc_cycles"] = float64(ms.NumGC)
}

// appendRecord adds one result to a JSONL file.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

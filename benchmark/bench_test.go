package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// inScratch runs the test from a temporary directory holding a copy of
// BENCHMARK.json, so what a run writes lands outside the repository.
func inScratch(t *testing.T) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, specFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// The declaration and the code name the same workloads, within the
// contract's limits (parseSpec enforces those).
func TestSpecMatchesCode(t *testing.T) {
	spec := mustSpec(t)
	if len(spec.Workloads) != len(builders) {
		t.Errorf("%s declares %d workloads, the code builds %d", specFile, len(spec.Workloads), len(builders))
	}
	for _, w := range spec.Workloads {
		if builders[w.Name] == nil {
			t.Errorf("workload %s is declared but has no builder", w.Name)
		}
	}
	var setup bool
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(spec.Command) == 0 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("command %q, paths %q", spec.Command, spec.Paths)
	}
}

func TestSpecRejectsBadDeclarations(t *testing.T) {
	good, err := os.ReadFile(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(string) string{
		"metric name outside the charset": func(s string) string { return strings.Replace(s, `"wall_s"`, `"wall s"`, 1) },
		"name used twice":                 func(s string) string { return strings.Replace(s, `"sim_mcps"`, `"wall_s"`, 1) },
		"bound above a quarter":           func(s string) string { return strings.Replace(s, `"bound": 0.`, `"bound": 1.`, 1) },
		"direction":                       func(s string) string { return strings.Replace(s, `"lower"`, `"smaller"`, 1) },
	} {
		bad := edit(string(good))
		if bad == string(good) {
			t.Fatalf("%s: edit did not apply", name)
		}
		if _, err := parseSpec([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every workload's untraced run emits exactly the end-to-end metrics and
// its traced run nothing undeclared (runOne fails otherwise); between
// them the traced runs measure every declared per-layer metric.
func TestSmokeRunsEmitDeclaredMetrics(t *testing.T) {
	spec := mustSpec(t)
	inScratch(t)
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(spec, options{workload: w.Name, seed: 3, smoke: true, trace: trace}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
				if trace && res.measured[m.Name] {
					measured[m.Name] = true
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", w.Name, trace, err)
			}
		}
		if w.Name == "ws-table7" {
			checkSpans(t, filepath.Join(scratchDir, "spans-ws-table7.json"))
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(scratchDir, "*-*")); len(left) != len(spec.Workloads) {
		t.Errorf("%s holds %q: want only the five span files (temporary directories removed)", scratchDir, left)
	}
}

// checkSpans parses a span file and checks the tree: one run, one pass
// under it, and cells that tile the pass.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	tr := &tracer{spans: doc.Spans}
	var pass int
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Name == "pass" {
			pass = s.ID
		}
	}
	if pass == 0 || doc.Spans[pass-1].Parent == 0 || doc.Spans[doc.Spans[pass-1].Parent-1].Name != "run" {
		t.Fatalf("%s: no pass span under a run span", path)
	}
	cells := 0
	for _, c := range tr.children(pass) {
		if c.Pass != doc.Spans[pass-1].Pass {
			t.Errorf("span %d carries pass id %d, its parent %d", c.ID, c.Pass, doc.Spans[pass-1].Pass)
		}
		if c.Name == "ws-cell" {
			cells++
		}
	}
	if cells == 0 {
		t.Errorf("%s: pass has no cell spans", path)
	}
	// Smoke cells last milliseconds, so the bar is looser than the 2 % a
	// full-size pass meets.
	if self := tr.selfTime(pass).Seconds() / doc.Spans[pass-1].dur().Seconds(); self < 0 || self > 0.2 {
		t.Errorf("%s: pass self time is %.1f%% of the pass", path, 100*self)
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := runOne(mustSpec(t), options{workload: "no-such", smoke: true}, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{2, 3, 1}, 1, 2, 3},
		{[]float64{4.2, 4.4, 4.3, 4.9, 4.1, 4.4, 4.6, 4.2, 4.3, 4.5}, 4.2, 4.35, 4.525},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

// The nominal cycles of a workstation cell are fixed by configuration;
// the measured window a real record reports is their measure-rotation
// share.
func TestNominalCyclesAgainstRecord(t *testing.T) {
	cfg := experiments.QuickUniConfig()
	cfg.Workloads = []string{"DC"}
	cfg.WarmupRotations, cfg.MeasureRotations = 2, 1
	cells, _, err := uniGridPass(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if !c.ok {
			t.Fatalf("%s failed", c.name)
		}
		if want := 3 * c.stats.Cycles; c.cycles != want {
			t.Errorf("%s: nominal %d cycles, record measured %d over 1 of 3 rotations", c.name, c.cycles, c.stats.Cycles)
		}
	}
	if got, want := uniNominal(experiments.DefaultUniConfig(), 4, 4), int64(3*12*60_000); got != want {
		t.Errorf("Table 7 cell: %d nominal cycles, want %d", got, want)
	}
}

func TestCompareCountsDifferingCells(t *testing.T) {
	ref := &passOut{cells: []cellOut{{digest: "a", ok: true}, {digest: "b", ok: true}}, text: "t"}
	same := &passOut{cells: []cellOut{{digest: "a", ok: true}, {digest: "b", ok: true}}, text: "t"}
	if n := compare(ref, same); n != 0 {
		t.Errorf("identical pass: %d failed", n)
	}
	same.cells[1].digest = "c"
	if n := compare(ref, same); n != 1 {
		t.Errorf("one differing record: %d failed", n)
	}
	same.cells[1] = cellOut{digest: "b", ok: false}
	if n := compare(ref, same); n != 1 {
		t.Errorf("one incomplete cell: %d failed", n)
	}
	same.cells[1].ok = true
	same.text = "other"
	if n := compare(ref, same); n != 2 {
		t.Errorf("table differs with no cell to pin it on: %d failed, want all", n)
	}
}

// -compare reads what -out writes.
func TestCompareReadsOutFiles(t *testing.T) {
	spec := mustSpec(t)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for i, v := range []float64{4, 5, 6} {
		for path, scale := range map[string]float64{a: 1, b: 1.5} {
			rec := record{Workload: "ws-table7", Seed: int64(i), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"wall_s": {v * scale, "s"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	sa, err := readRecords(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := readRecords(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := median(sa["ws-table7"]["wall_s"]); got != 5 {
		t.Errorf("median of a = %v", got)
	}
	// b is 50 % slower: over the bound when gated, reported when not.
	if err := report(spec.EndToEnd, []string{"ws-table7"}, sa, sb, true); err == nil {
		t.Error("a 50 % regression passed the gate")
	}
	if err := report(spec.EndToEnd, []string{"ws-table7"}, sa, sb, false); err != nil {
		t.Error(err)
	}
}

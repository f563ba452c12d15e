package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/experiments"
)

// Regression: a failed -json write used to call os.Exit from inside a
// defer, which skipped the remaining defers AND (on the marshal-error
// path) could exit zero from a run whose output was never written. The
// write error must surface as a non-zero return from run.
func TestJSONWriteErrorPropagatesExitCode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	if code := run([]string{"-only", "table4", "-json", bad, "-j", "1"}); code == 0 {
		t.Errorf("run with unwritable -json path returned %d, want non-zero", code)
	}
}

func TestJSONWriteSuccessExitsZero(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	if code := run([]string{"-only", "table4", "-json", out, "-j", "1"}); code != 0 {
		t.Fatalf("run returned %d, want 0", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("json output not written: %v", err)
	}
	var blob map[string]any
	if err := json.Unmarshal(data, &blob); err != nil {
		t.Fatalf("json output does not parse: %v", err)
	}
	if _, ok := blob["table4"]; !ok {
		t.Errorf("json blob missing table4 section: %v", blob)
	}
}

func TestBadFlagExitsNonZero(t *testing.T) {
	if code := run([]string{"-no-such-flag"}); code != experiments.ExitUsage {
		t.Errorf("run with an unknown flag returned %d, want %d", code, experiments.ExitUsage)
	}
}

func TestJournalAndResumeAreMutuallyExclusive(t *testing.T) {
	dir := t.TempDir()
	code := run([]string{
		"-journal", filepath.Join(dir, "a.journal"),
		"-resume", filepath.Join(dir, "b.journal"),
	})
	if code != experiments.ExitUsage {
		t.Errorf("run -journal + -resume returned %d, want %d", code, experiments.ExitUsage)
	}
}

func TestResumeMissingJournalFails(t *testing.T) {
	code := run([]string{"-quick", "-only", "table7",
		"-resume", filepath.Join(t.TempDir(), "no-such.journal")})
	if code != experiments.ExitFailure {
		t.Errorf("resume from a missing journal returned %d, want %d", code, experiments.ExitFailure)
	}
}

// absorbInterrupts keeps a test-local handler registered for SIGINT and
// SIGTERM so a self-delivered signal that lands after run()'s own handler
// is unregistered cannot kill the test binary.
func absorbInterrupts(t *testing.T) {
	t.Helper()
	ch := make(chan os.Signal, 8)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	t.Cleanup(func() { signal.Stop(ch) })
}

// capture runs run(args) with os.Stdout and os.Stderr redirected and
// returns its exit code and what it wrote to each.
func capture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	read := func(f **os.File) func() string {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		old := *f
		*f = w
		done := make(chan string, 1)
		go func() {
			data, _ := io.ReadAll(r)
			done <- string(data)
		}()
		return func() string {
			*f = old
			w.Close()
			return <-done
		}
	}
	outDone, errDone := read(&os.Stdout), read(&os.Stderr)
	code = run(args)
	return code, outDone(), errDone()
}

// studySections are the -only names outside the two grids, in run order.
var studySections = []string{"table4", "fig2", "fig3", "ablations", "response", "sweeps"}

// The sections outside the grids print pinned bytes and dump a pinned
// -json at every -j, and running them one -only name at a time prints
// the same bytes as running them together: the vocabulary and the
// dispatch agree.
func TestStudySectionsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		wantStdout = "f16ee2044b8fcf495b76ecbc5e8837f0b74b6ee09a9b0420044db2b21f45a411"
		wantJSON   = "ffc348e76cb8700a05d5ef269348f3c9eb5d632ab3395f2c5a94115ca239ad06"
	)
	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	for _, j := range []string{"1", "8"} {
		jsonPath := filepath.Join(t.TempDir(), "out.json")
		code, out, errOut := capture(t, "-quick", "-only", strings.Join(studySections, ","), "-j", j, "-json", jsonPath)
		if code != 0 {
			t.Fatalf("-j %s: exit code %d; stderr:\n%s", j, code, errOut)
		}
		if got := sum([]byte(out)); got != wantStdout {
			t.Errorf("-j %s: stdout sha256 %s, want %s", j, got, wantStdout)
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := sum(data); got != wantJSON {
			t.Errorf("-j %s: -json sha256 %s, want %s", j, got, wantJSON)
		}
		// Every section with a value is a key; the timelines have none.
		var blob struct {
			Table4, Ablations, Response json.RawMessage
			Sweeps                      map[string]json.RawMessage
		}
		if err := json.Unmarshal(data, &blob); err != nil {
			t.Fatal(err)
		}
		if blob.Table4 == nil || blob.Ablations == nil || blob.Response == nil || blob.Sweeps["prefetch"] == nil {
			t.Errorf("-j %s: -json lacks table4, ablations, response or sweeps.prefetch:\n%s", j, data)
		}
	}
	var cat strings.Builder
	for _, name := range studySections {
		code, out, errOut := capture(t, "-quick", "-only", name, "-j", "8")
		if code != 0 {
			t.Fatalf("-only %s: exit code %d; stderr:\n%s", name, code, errOut)
		}
		cat.WriteString(out)
	}
	if got := sum([]byte(cat.String())); got != wantStdout {
		t.Errorf("the single-name runs concatenated: sha256 %s, want %s", got, wantStdout)
	}
}

// subsetDC is a three-cell subset grid: DC's baseline, interleaved/2 and
// interleaved/4.
var subsetDC = []string{"-quick", "-subjects", "DC", "-schemes", "interleaved", "-contexts", "2,4"}

// subsetOcean is a three-cell multiprocessor subset grid: ocean's
// baseline, interleaved/2 and interleaved/4.
var subsetOcean = []string{"-quick", "-subjects", "ocean", "-schemes", "interleaved", "-contexts", "2,4"}

// drainSubset runs a serial subset grid that raises sig after its first
// journaled cell, and checks that the run drains: it exits
// ExitInterrupted, the completed baseline of subject is printed, the
// cells that never completed render SKIP, and stderr says the run was
// interrupted.
func drainSubset(t *testing.T, subset []string, subject string, sig os.Signal) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	absorbInterrupts(t)
	interruptSignal = sig
	t.Cleanup(func() { interruptSignal = os.Interrupt })
	journal := filepath.Join(t.TempDir(), "grid.journal")
	code, out, errOut := capture(t, append(subset, "-j", "1", "-journal", journal, "-interrupt-after", "1")...)
	if code != experiments.ExitInterrupted {
		t.Fatalf("exit code %d, want %d; stderr:\n%s", code, experiments.ExitInterrupted, errOut)
	}
	if !strings.Contains(out, subject+":\n  1 ctx |") {
		t.Errorf("the completed baseline is not printed:\n%s", out)
	}
	if !strings.Contains(out, "  4 ctx SKIPPED") || !strings.Contains(out, "SKIP") {
		t.Errorf("the cells that never completed do not render SKIP:\n%s", out)
	}
	if !strings.Contains(errOut, "experiments: interrupted") {
		t.Errorf("stderr does not report the interruption:\n%s", errOut)
	}
}

// SIGINT partway through a serial workstation subset grid drains it.
func TestWorkstationSubsetSigintDrain(t *testing.T) {
	drainSubset(t, subsetDC, "DC", os.Interrupt)
}

// SIGTERM takes the same drain path as SIGINT.
func TestWorkstationSubsetSigtermDrain(t *testing.T) {
	drainSubset(t, subsetDC, "DC", syscall.SIGTERM)
}

// SIGINT partway through a serial multiprocessor subset grid drains it.
func TestMultiprocessorSubsetSigintDrain(t *testing.T) {
	drainSubset(t, subsetOcean, "ocean", os.Interrupt)
}

// SIGTERM takes the same drain path as SIGINT.
func TestMultiprocessorSubsetSigtermDrain(t *testing.T) {
	drainSubset(t, subsetOcean, "ocean", syscall.SIGTERM)
}

// An uninterrupted multiprocessor subset grid runs only Table 10 and
// completes every cell.
func TestMultiprocessorSubsetCompletesWithoutSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	code, out, errOut := capture(t, append(subsetOcean, "-j", "1")...)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errOut)
	}
	if strings.Contains(out, "Table 7") || !strings.Contains(out, "Table 10") {
		t.Errorf("-subjects ocean ran other than the multiprocessor grid:\n%s", out)
	}
	if strings.Contains(out, "SKIP") || strings.Contains(out, "FAIL") {
		t.Errorf("a cell did not complete:\n%s", out)
	}
	for _, row := range []string{"ocean:\n  1 ctx |", "  2 ctx |", "  4 ctx |"} {
		if !strings.Contains(out, row) {
			t.Errorf("output lacks %q:\n%s", row, out)
		}
	}
}

// A selection no grid can run, a -j below one or a negative
// -cell-timeout exits 2 before anything runs.
func TestBadSubsetExitsUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-subjects", "nosuch"},
		{"-contexts", "0"},
		{"-quick", "-subjects", "DC", "-contexts", "65"},
		{"-quick", "-subjects", "DC", "-contexts", "2,2"},
		{"-quick", "-subjects", "DC,DC"},
		{"-quick", "-subjects", "DC", "-schemes", "blocked,blocked"},
		{"-schemes", "single"},
		{"-subjects", "DC", "-only", "table10"},
		{"-quick", "-only", "tabel7"},
		{"-j", "0", "-only", "table4"},
		{"-j", "-3", "-only", "table4"},
		{"-quick", "-only", "table7", "-cell-timeout", "-1s"},
	} {
		if code, _, _ := capture(t, args...); code != experiments.ExitUsage {
			t.Errorf("%v: exit code %d, want %d", args, code, experiments.ExitUsage)
		}
	}
}

// A subset grid's output, -json included, does not depend on -j, and a
// subset is part of the journal fingerprint: resuming a -subjects DC
// journal as -subjects IC is the documented mismatch.
func TestSubsetGridIsAnOrdinaryGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	journal := filepath.Join(dir, "grid.journal")
	serialJSON, parallelJSON := filepath.Join(dir, "j1.json"), filepath.Join(dir, "j4.json")
	code, serial, _ := capture(t, append(subsetDC, "-j", "1", "-journal", journal, "-json", serialJSON)...)
	if code != 0 {
		t.Fatalf("-j 1 exit code %d", code)
	}
	code, parallel, _ := capture(t, append(subsetDC, "-j", "4", "-json", parallelJSON)...)
	if code != 0 {
		t.Fatalf("-j 4 exit code %d", code)
	}
	if serial != parallel {
		t.Errorf("-j 1 and -j 4 print different bytes:\n%s\n---\n%s", serial, parallel)
	}
	sj, err := os.ReadFile(serialJSON)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := os.ReadFile(parallelJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Errorf("-j 1 and -j 4 write different -json:\n%s\n---\n%s", sj, pj)
	}
	if strings.Contains(serial, "Table 10") || !strings.Contains(serial, "Table 7") {
		t.Errorf("-subjects DC ran other than the workstation grid:\n%s", serial)
	}

	other := []string{"-quick", "-subjects", "IC", "-schemes", "interleaved", "-contexts", "2,4", "-resume", journal}
	if code, _, _ := capture(t, other...); code != experiments.ExitFingerprintMismatch {
		t.Errorf("resume under another subset: exit code %d, want %d", code, experiments.ExitFingerprintMismatch)
	}
}

// The end-to-end acceptance path, in-process: a run interrupted by a real
// SIGINT exits 3 with its completed cells journaled; resuming that
// journal exits 0 and produces -json output byte-identical to an
// uninterrupted run.
func TestInterruptThenResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	absorbInterrupts(t)
	dir := t.TempDir()
	fullJSON := filepath.Join(dir, "full.json")
	partJSON := filepath.Join(dir, "part.json")
	resumedJSON := filepath.Join(dir, "resumed.json")
	partJournal := filepath.Join(dir, "part.journal")

	base := []string{"-quick", "-only", "table7", "-j", "2"}
	if code := run(append(base, "-json", fullJSON, "-journal", filepath.Join(dir, "full.journal"))); code != 0 {
		t.Fatalf("uninterrupted run returned %d", code)
	}

	code := run(append(base, "-json", partJSON, "-journal", partJournal, "-interrupt-after", "3"))
	if code != experiments.ExitInterrupted {
		t.Fatalf("interrupted run returned %d, want %d", code, experiments.ExitInterrupted)
	}
	if _, err := os.Stat(partJSON); err != nil {
		t.Fatalf("interrupted run did not flush its -json output: %v", err)
	}

	if code := run(append(base, "-json", resumedJSON, "-resume", partJournal)); code != 0 {
		t.Fatalf("resumed run returned %d", code)
	}
	full, err := os.ReadFile(fullJSON)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resumedJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, resumed) {
		t.Error("resumed -json output differs from the uninterrupted run")
	}
}

// Resuming under different flags — here, a different -only selection —
// is the documented hard error with its own exit code.
func TestResumeFingerprintMismatchExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	absorbInterrupts(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "part.journal")
	code := run([]string{"-quick", "-only", "table7", "-j", "2",
		"-journal", journal, "-interrupt-after", "1"})
	if code != experiments.ExitInterrupted {
		t.Fatalf("interrupted run returned %d, want %d", code, experiments.ExitInterrupted)
	}
	code = run([]string{"-quick", "-only", "table7,fig6", "-j", "2", "-resume", journal})
	if code != experiments.ExitFingerprintMismatch {
		t.Errorf("resume under different flags returned %d, want %d", code, experiments.ExitFingerprintMismatch)
	}
}

// Forking is no part of the journal fingerprint: a run journaled with
// its sweeps forked resumes under -no-checkpoint, prints the bytes the
// journaled run printed and simulates no grid cell again (it appends
// nothing to the journal).
func TestResumeWithoutCheckpointReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	journal := filepath.Join(t.TempDir(), "grid.journal")
	base := []string{"-quick", "-only", "table7,sweeps", "-j", "2"}
	code, want, errOut := capture(t, append(base, "-journal", journal)...)
	if code != 0 {
		t.Fatalf("journaled run: exit code %d; stderr:\n%s", code, errOut)
	}
	journaled, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	code, got, errOut := capture(t, append(base, "-no-checkpoint", "-resume", journal)...)
	if code != 0 {
		t.Fatalf("resume under -no-checkpoint: exit code %d; stderr:\n%s", code, errOut)
	}
	if got != want {
		t.Errorf("the resumed run printed other bytes:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, journaled) {
		t.Errorf("the resume appended %d bytes to the journal; every grid cell was journaled", len(after)-len(journaled))
	}
}

// A journaled record that decodes but is neither a result nor a failure
// — here cell 1 of each grid, overwritten in place with a valid line
// hash — is not replayed on either grid: -resume runs those cells again
// and prints what the uninterrupted run printed. (It used to render FAIL
// in Table 7 and a completed 0-cycle cell in Table 10.)
func TestResumeRerunsRecordThatIsNoOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	fullJSON, resumedJSON := filepath.Join(dir, "full.json"), filepath.Join(dir, "resumed.json")
	journal := filepath.Join(dir, "grid.journal")
	base := []string{"-quick", "-only", "table7,table10", "-j", "2"}
	if code := run(append(base, "-json", fullJSON, "-journal", journal)); code != 0 {
		t.Fatalf("journaled run returned %d", code)
	}

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	forged := 0
	for i, raw := range lines {
		var line map[string]json.RawMessage
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		if string(line["type"]) != `"cell"` || string(line["index"]) != "1" {
			continue
		}
		line["data"] = json.RawMessage(`{"stats":{}}`)
		line["hash"], _ = json.Marshal(experiments.DataHash(line["data"]))
		if lines[i], err = json.Marshal(line); err != nil {
			t.Fatal(err)
		}
		forged++
	}
	if forged != 2 {
		t.Fatalf("forged %d journal lines, want cell 1 of both grids", forged)
	}
	if err := os.WriteFile(journal, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	if code := run(append(base, "-json", resumedJSON, "-resume", journal)); code != 0 {
		t.Fatalf("resumed run returned %d", code)
	}
	full, err := os.ReadFile(fullJSON)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resumedJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, resumed) {
		t.Error("resumed -json output differs from the uninterrupted run")
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(after, []byte("\n")) - len(lines); got != forged {
		t.Errorf("resume appended %d records, want the %d re-run cells", got, forged)
	}
}

// A journal of another format version holds cells simulated under that
// version's rules: -resume refuses it with the mismatch exit code, as it
// does a journal of other flags, and replays nothing.
func TestResumeJournalOfAnotherVersionExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	journal := filepath.Join(t.TempDir(), "grid.journal")
	if code, _, errOut := capture(t, append(subsetDC, "-j", "2", "-journal", journal)...); code != 0 {
		t.Fatalf("journaled run: exit code %d; stderr:\n%s", code, errOut)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf(`{"type":"header","version":%d,`, experiments.JournalVersion)
	if !bytes.HasPrefix(data, []byte(current)) {
		t.Fatalf("journal does not open with %s", current)
	}
	old := fmt.Sprintf(`{"type":"header","version":%d,`, experiments.JournalVersion-1)
	if err := os.WriteFile(journal, append([]byte(old), data[len(current):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := capture(t, append(subsetDC, "-j", "2", "-resume", journal)...)
	if code != experiments.ExitFingerprintMismatch {
		t.Errorf("resume of a version-%d journal: exit code %d, want %d; stderr:\n%s",
			experiments.JournalVersion-1, code, experiments.ExitFingerprintMismatch, errOut)
	}
	if out != "" {
		t.Errorf("the refused resume printed:\n%s", out)
	}
}

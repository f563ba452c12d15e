package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/signal"
	"path/filepath"
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

// absorbInterrupts keeps a test-local handler registered for SIGINT so a
// self-delivered interrupt that lands after run()'s own handler is
// unregistered cannot kill the test binary.
func absorbInterrupts(t *testing.T) {
	t.Helper()
	ch := make(chan os.Signal, 8)
	signal.Notify(ch, os.Interrupt)
	t.Cleanup(func() { signal.Stop(ch) })
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

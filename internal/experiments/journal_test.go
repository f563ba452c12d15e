package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/seeded"
)

// journalTestConfig is the small grid the journal tests run: one workload,
// 1 baseline + 2 schemes x 2 counts = 5 cells.
func journalTestConfig() UniConfig {
	cfg := QuickUniConfig()
	cfg.Workloads = []string{"DC"}
	cfg.Parallelism = 2
	return cfg
}

func journalLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(data), "\n"), "\n")
}

// The tentpole guarantee: a grid resumed from a partial journal is
// byte-identical — table text AND -json bytes — to the uninterrupted run,
// and the journaled cells are replayed, never re-simulated.
func TestJournalResumeByteIdentical(t *testing.T) {
	// Uninterrupted reference, no journal involved at all.
	ref, err := RunUniprocessor(journalTestConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Full journaled run.
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.journal")
	cfg := journalTestConfig()
	fp := NewFingerprint(&cfg, nil, nil)
	j, err := CreateJournal(fullPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	if _, err := RunUniprocessorCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	total := j.Appended()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if total != len(ref.Cells) {
		t.Fatalf("journaled %d cells, grid has %d", total, len(ref.Cells))
	}

	// Simulate a crash: keep the header plus the first k cell records.
	const k = 2
	lines := journalLines(t, fullPath)
	if len(lines) != 1+total {
		t.Fatalf("journal has %d lines, want %d", len(lines), 1+total)
	}
	partPath := filepath.Join(dir, "part.journal")
	part := strings.Join(lines[:1+k], "\n") + "\n"
	if err := os.WriteFile(partPath, []byte(part), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: the k journaled cells replay, only the remainder simulates.
	j2, err := OpenJournal(partPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Cells() != k {
		t.Fatalf("opened journal holds %d cells, want %d", j2.Cells(), k)
	}
	rcfg := journalTestConfig()
	rcfg.Journal = j2
	resumed, err := RunUniprocessorCtx(context.Background(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Replayed() != k {
		t.Errorf("replayed %d cells, want %d (journaled cells must not re-simulate)", j2.Replayed(), k)
	}
	if j2.Appended() != total-k {
		t.Errorf("appended %d cells on resume, want %d", j2.Appended(), total-k)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte identity: formatted tables and the JSON encoding both match the
	// uninterrupted run exactly.
	if got, want := FormatTable7(resumed), FormatTable7(ref); got != want {
		t.Errorf("resumed Table 7 differs from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
	gotJSON, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("resumed JSON differs from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", gotJSON, wantJSON)
	}

	// The resumed journal file is now complete: a second resume replays
	// everything and simulates nothing.
	j3, err := OpenJournal(partPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	rcfg2 := journalTestConfig()
	rcfg2.Journal = j3
	again, err := RunUniprocessorCtx(context.Background(), rcfg2)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Replayed() != total || j3.Appended() != 0 {
		t.Errorf("complete journal: replayed %d appended %d, want %d/0", j3.Replayed(), j3.Appended(), total)
	}
	j3.Close()
	if FormatTable7(again) != FormatTable7(ref) {
		t.Error("pure-replay run differs from uninterrupted run")
	}
}

// Failed cells are journaled too: a resume must not re-run a
// deterministic failure, and the failure must survive the round trip.
func TestJournalReplaysFailedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	fp := Fingerprint{Version: JournalVersion, Binary: "test"}
	j, err := CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(GridWorkstation, 3, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "watchdog: wedged", Retried: true}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var rec UniCellRecord
	if !j2.Replay(GridWorkstation, 3, &rec) {
		t.Fatal("journaled failed cell did not replay")
	}
	if !rec.Failed || rec.Failure != "watchdog: wedged" || !rec.Retried {
		t.Errorf("failure round trip lost fields: %+v", rec)
	}
	if j2.Replay(GridWorkstation, 0, &rec) {
		t.Error("replay invented a cell that was never journaled")
	}
}

// A crash mid-append leaves a torn tail. Each corruption is either
// tolerated — the intact prefix replays, the torn cell re-runs — or, when
// the header itself is unusable, a hard error.
func TestJournalCorruptionTolerance(t *testing.T) {
	// A known-good journal: header + 3 intact cell records.
	fp := Fingerprint{Version: JournalVersion, Binary: "test"}
	mkLines := func(t *testing.T) []string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "good.journal")
		j, err := CreateJournal(path, fp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			j.Record(GridWorkstation, i, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: fmt.Sprintf("cell %d", i)}})
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return journalLines(t, path)
	}

	tests := []struct {
		name    string
		mutate  func(lines []string) string // full file content
		cells   int                         // intact cells expected; -1 = hard error
		errWant string                      // substring of the hard error
	}{
		{
			name: "intact",
			mutate: func(l []string) string {
				return strings.Join(l, "\n") + "\n"
			},
			cells: 3,
		},
		{
			name: "truncated mid-line",
			mutate: func(l []string) string {
				whole := strings.Join(l[:3], "\n") + "\n"
				return whole + l[3][:len(l[3])/2] // last record torn in half
			},
			cells: 2,
		},
		{
			name: "garbage trailing line",
			mutate: func(l []string) string {
				return strings.Join(l, "\n") + "\n{not json at all\n"
			},
			cells: 3,
		},
		{
			name: "unknown record type",
			mutate: func(l []string) string {
				return strings.Join(l, "\n") + "\n" + `{"type":"bogus"}` + "\n"
			},
			cells: 3,
		},
		{
			name: "payload hash mismatch",
			mutate: func(l []string) string {
				torn := `{"type":"cell","hash":"deadbeefdeadbeef","grid":"workstation","index":9,"data":{"failed":true}}`
				return strings.Join(l, "\n") + "\n" + torn + "\n"
			},
			cells: 3,
		},
		{
			name: "header only",
			mutate: func(l []string) string {
				return l[0] + "\n"
			},
			cells: 0,
		},
		{
			name: "empty file",
			mutate: func(l []string) string {
				return ""
			},
			cells:   -1,
			errWant: "no intact header",
		},
		{
			name: "not a journal",
			mutate: func(l []string) string {
				return `{"type":"cell","index":0}` + "\n"
			},
			cells:   -1,
			errWant: "is not a journal",
		},
		{
			name: "wrong format version",
			mutate: func(l []string) string {
				return `{"type":"header","version":99,"hash":"x"}` + "\n"
			},
			cells:   -1,
			errWant: "format version 99",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			lines := mkLines(t)
			path := filepath.Join(t.TempDir(), "mutated.journal")
			if err := os.WriteFile(path, []byte(tc.mutate(lines)), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path, fp)
			if tc.cells < 0 {
				if err == nil {
					j.Close()
					t.Fatalf("OpenJournal tolerated %s", tc.name)
				}
				if !strings.Contains(err.Error(), tc.errWant) {
					t.Errorf("error %q does not mention %q", err, tc.errWant)
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			if j.Cells() != tc.cells {
				t.Errorf("intact cells = %d, want %d", j.Cells(), tc.cells)
			}
			// The torn tail is gone and the journal accepts appends on a
			// clean record boundary: append one cell, close, reopen.
			j.Record(GridWorkstation, 40+tc.cells, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "appended"}})
			if err := j.Err(); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := OpenJournal(path, fp)
			if err != nil {
				t.Fatalf("reopen after append: %v", err)
			}
			defer j2.Close()
			if j2.Cells() != tc.cells+1 {
				t.Errorf("after append: %d cells, want %d", j2.Cells(), tc.cells+1)
			}
		})
	}
}

// Resuming under a different configuration is a hard, typed error:
// replaying results recorded under other parameters would silently
// fabricate data.
func TestJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	cfg := journalTestConfig()
	fp := NewFingerprint(&cfg, nil, []string{"table7"})
	j, err := CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	other := journalTestConfig()
	other.Seed = cfg.Seed + 1
	_, err = OpenJournal(path, NewFingerprint(&other, nil, []string{"table7"}))
	var fe *FingerprintError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FingerprintError", err)
	}
	if fe.Path != path || fe.Got != fp.Hash() {
		t.Errorf("FingerprintError fields: %+v", fe)
	}

	// Same config at a different parallelism is NOT a mismatch: results
	// are byte-identical at every -j.
	sameJ := journalTestConfig()
	sameJ.Parallelism = 7
	j2, err := OpenJournal(path, NewFingerprint(&sameJ, nil, []string{"table7"}))
	if err != nil {
		t.Fatalf("parallelism changed the fingerprint: %v", err)
	}
	j2.Close()
}

// The fingerprint splits into config identity (hard error) and binary
// identity (refusable by default, overridable): a journal written by a
// different binary under the identical configuration resumes with
// -allow-binary-mismatch and replays verbatim, while a config mismatch
// stays hard even with the override.
func TestJournalBinaryMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	cfg := journalTestConfig()
	writerFP := NewFingerprint(&cfg, nil, nil)
	writerFP.Binary = "writer-binary"
	j, err := CreateJournal(path, writerFP)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(GridWorkstation, 2, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "recorded by writer"}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	readerFP := NewFingerprint(&cfg, nil, nil)
	readerFP.Binary = "reader-binary"

	// Config identity matches — the hash ignores the binary — so the
	// default-mode failure is the typed, overridable binary error.
	if writerFP.Hash() != readerFP.Hash() {
		t.Fatal("binary identity leaked into the config hash")
	}
	_, err = OpenJournal(path, readerFP)
	var be *BinaryMismatchError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BinaryMismatchError", err)
	}
	if be.Got != "writer-binary" || be.Want != "reader-binary" {
		t.Errorf("BinaryMismatchError fields: %+v", be)
	}

	// Allowed: the journal opens, warns, and replays the writer's cells.
	var warned []string
	j2, err := OpenJournalAllow(path, readerFP, true, func(format string, args ...any) {
		warned = append(warned, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatalf("OpenJournalAllow: %v", err)
	}
	defer j2.Close()
	if len(warned) != 1 || !strings.Contains(warned[0], "writer-binary") {
		t.Errorf("warnings = %q, want one naming the writer binary", warned)
	}
	var rec UniCellRecord
	if !j2.Replay(GridWorkstation, 2, &rec) || rec.Failure != "recorded by writer" {
		t.Errorf("cross-binary replay lost the record: %+v", rec)
	}

	// Same binary: no error, no warning.
	if _, err := OpenJournal(path, writerFP); err != nil {
		t.Errorf("same-binary open failed: %v", err)
	}

	// Config drift stays a hard *FingerprintError even with the override.
	other := journalTestConfig()
	other.Seed++
	otherFP := NewFingerprint(&other, nil, nil)
	otherFP.Binary = "writer-binary"
	_, err = OpenJournalAllow(path, otherFP, true, nil)
	var fe *FingerprintError
	if !errors.As(err, &fe) {
		t.Fatalf("config mismatch with override: got %v, want *FingerprintError", err)
	}
}

// A nil *Journal must be inert everywhere — the no-journal path of every
// grid driver goes through these calls.
func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if j.Path() != "" || j.Cells() != 0 || j.Replayed() != 0 || j.Appended() != 0 {
		t.Error("nil journal reports state")
	}
	var rec UniCellRecord
	if j.Replay(GridWorkstation, 0, &rec) {
		t.Error("nil journal replayed a cell")
	}
	j.Record(GridWorkstation, 0, UniCellRecord{})
	j.SetAppendHook(func(int) {})
	if err := j.Err(); err != nil {
		t.Errorf("nil journal has a sticky error: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("nil journal close: %v", err)
	}
}

// The failed-fsync satellite: a Record whose bytes reach the file but
// whose Sync fails must (a) surface a typed *AppendError, (b) not enter
// the replay map, and (c) leave a journal that — after the crash the
// failed barrier implies — reopens to exactly the pre-append state,
// with the un-durable tail truncated away.
func TestJournalFailedSyncRecoversPreAppendState(t *testing.T) {
	cfg := journalTestConfig()
	fp := NewFingerprint(&cfg, nil, nil)
	mem := faultfs.NewMem()
	const path = "/grid.journal"

	// Header sync is #1; cell records sync at #2, #3, #4. Fail the third
	// cell's barrier.
	inj := faultfs.NewInjector(mem, seeded.Plan[faultfs.FaultKind]{{Kind: faultfs.FaultFailedSync, At: 4}}, nil, nil)
	j, err := CreateJournalFS(inj, path, fp)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(GridWorkstation, 0, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 0"}})
	j.Record(GridWorkstation, 1, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 1"}})
	if err := j.Err(); err != nil {
		t.Fatalf("clean appends errored: %v", err)
	}
	j.Record(GridWorkstation, 2, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 2"}})

	var ae *AppendError
	if err := j.Err(); !errors.As(err, &ae) {
		t.Fatalf("Err() = %v, want *AppendError", err)
	}
	if ae.Grid != GridWorkstation || ae.Index != 2 {
		t.Errorf("AppendError names cell %s/%d, want %s/2", ae.Grid, ae.Index, GridWorkstation)
	}
	if !errors.Is(ae, syscall.EIO) {
		t.Errorf("AppendError does not unwrap to the injected EIO: %v", ae)
	}
	if _, ok := j.ReplayRaw(GridWorkstation, 2); ok {
		t.Error("un-durable cell entered the replay map")
	}
	// Sticky: later appends are refused outright.
	j.Record(GridWorkstation, 3, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 3"}})
	if _, ok := j.ReplayRaw(GridWorkstation, 3); ok {
		t.Error("append after sticky error was accepted")
	}

	// Crash now. The record's bytes may be sitting volatile in the file;
	// the durable image must not contain them.
	img := mem.CrashImage()
	j2, err := OpenJournalAllowFS(img, path, fp, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Cells(); got != 2 {
		t.Fatalf("recovered %d cells, want the 2 durable ones", got)
	}
	for i := 0; i < 2; i++ {
		var rec UniCellRecord
		if !j2.Replay(GridWorkstation, i, &rec) || rec.Failure != fmt.Sprintf("cell %d", i) {
			t.Errorf("cell %d did not replay intact: %+v", i, rec)
		}
	}
	if _, ok := j2.ReplayRaw(GridWorkstation, 2); ok {
		t.Error("cell with failed sync survived the crash")
	}
	// And the recovered journal appends cleanly where it left off.
	j2.Record(GridWorkstation, 2, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 2 rerun"}})
	if err := j2.Err(); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// A torn append (short write mid-record) behaves the same way: typed
// sticky error now, pre-append state after reopen.
func TestJournalTornWriteRecovers(t *testing.T) {
	cfg := journalTestConfig()
	fp := NewFingerprint(&cfg, nil, nil)
	mem := faultfs.NewMem()
	const path = "/grid.journal"

	// Header is write #1, cells are #2, #3, ... — tear the second cell's
	// write partway through.
	inj := faultfs.NewInjector(mem, seeded.Plan[faultfs.FaultKind]{{Kind: faultfs.FaultTornWrite, At: 3, Arg: 17}}, nil, nil)
	j, err := CreateJournalFS(inj, path, fp)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(GridWorkstation, 0, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 0"}})
	j.Record(GridWorkstation, 1, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 1"}})
	var ae *AppendError
	if err := j.Err(); !errors.As(err, &ae) || ae.Index != 1 {
		t.Fatalf("Err() = %v, want *AppendError for cell 1", err)
	}

	j2, err := OpenJournalAllowFS(mem, path, fp, false, nil)
	if err != nil {
		t.Fatalf("reopen over the torn tail: %v", err)
	}
	defer j2.Close()
	if got := j2.Cells(); got != 1 {
		t.Fatalf("recovered %d cells, want 1", got)
	}
	j2.Record(GridWorkstation, 1, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 1 rerun"}})
	if err := j2.Err(); err != nil {
		t.Fatalf("append after torn-tail truncation: %v", err)
	}
	var rec UniCellRecord
	if !j2.Replay(GridWorkstation, 1, &rec) || rec.Failure != "cell 1 rerun" {
		t.Errorf("re-recorded cell = %+v", rec)
	}
}

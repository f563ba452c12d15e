package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strconv"
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
	if _, err := workstationGrid.run(context.Background(), cfg, j); err != nil {
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
	before := Cells()
	resumed, err := workstationGrid.run(context.Background(), journalTestConfig(), j2)
	if err != nil {
		t.Fatal(err)
	}
	if sim := Cells().Sub(before); sim != (CellCounts{Simulated: int64(total - k)}) {
		t.Errorf("resume ran %v, want %d simulated (journaled cells must not re-simulate)", sim, total-k)
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
	before = Cells()
	again, err := workstationGrid.run(context.Background(), journalTestConfig(), j3)
	if err != nil {
		t.Fatal(err)
	}
	if sim := Cells().Sub(before); sim != (CellCounts{}) || j3.Appended() != 0 {
		t.Errorf("complete journal: ran %v and appended %d, want nothing", sim, j3.Appended())
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
	fp := Fingerprint{Binary: "test"}
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
	rec, ok := replayRecord(t, j2, 3)
	if !ok {
		t.Fatal("journaled failed cell did not replay")
	}
	if !rec.Failed || rec.Failure != "watchdog: wedged" || !rec.Retried {
		t.Errorf("failure round trip lost fields: %+v", rec)
	}
	if _, ok := j2.Replay(GridWorkstation, 0); ok {
		t.Error("replay invented a cell that was never journaled")
	}
}

// A crash mid-append leaves a torn tail. Each corruption is either
// tolerated — the intact prefix replays, the torn cell re-runs — or, when
// the header itself is unusable, a hard error. That error is a
// *HeaderNotWrittenError exactly when no first line landed, so a caller
// may start afresh; a complete first line that is no header is not.
func TestJournalCorruptionTolerance(t *testing.T) {
	// A known-good journal: header + 3 intact cell records.
	fp := Fingerprint{Binary: "test"}
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
		name      string
		mutate    func(lines []string) string // full file content
		cells     int                         // intact cells expected; -1 = hard error
		errWant   string                      // substring of the hard error
		unwritten bool                        // the hard error is a *HeaderNotWrittenError
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
			name: "record without its newline",
			mutate: func(l []string) string {
				return strings.Join(l, "\n") // bytes that parse, cut before the newline
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
			cells:     -1,
			errWant:   "no intact header",
			unwritten: true,
		},
		{
			name: "torn header",
			mutate: func(l []string) string {
				return l[0][:len(l[0])/2]
			},
			cells:     -1,
			errWant:   "no intact header",
			unwritten: true,
		},
		{
			name: "header without its newline",
			mutate: func(l []string) string {
				return l[0]
			},
			cells:     -1,
			errWant:   "no intact header",
			unwritten: true,
		},
		{
			name: "complete invalid header",
			mutate: func(l []string) string {
				return l[0][:len(l[0])/2] + "\n"
			},
			cells:   -1,
			errWant: "no intact header",
		},
		{
			name: "invalid header before records",
			mutate: func(l []string) string {
				return l[0][:len(l[0])/2] + "\n" + strings.Join(l[1:], "\n") + "\n"
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
				var unwritten *HeaderNotWrittenError
				if got := errors.As(err, &unwritten); got != tc.unwritten {
					t.Errorf("error %q is a HeaderNotWrittenError: %v, want %v", err, got, tc.unwritten)
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
	if fe.Path != path || fe.What != "configuration" || fe.Got != fp.Hash() {
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

// The fingerprint's binary identity is compared beside its config hash,
// and drift in it is as hard an error as config drift: a journal written
// by another binary under the identical configuration is refused with
// the same *FingerprintError, naming the binary.
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
	if writerFP.Hash() != readerFP.Hash() {
		t.Fatal("binary identity leaked into the config hash")
	}
	_, err = OpenJournal(path, readerFP)
	var fe *FingerprintError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FingerprintError", err)
	}
	if fe.What != "binary" || fe.Got != "writer-binary" || fe.Want != "reader-binary" {
		t.Errorf("FingerprintError fields: %+v", fe)
	}
	if msg := err.Error(); !strings.Contains(msg, "binary writer-binary") || !strings.Contains(msg, "reader-binary") {
		t.Errorf("error %q does not name both binaries", msg)
	}

	// Same binary: the journal opens and replays the writer's cell.
	j2, err := OpenJournal(path, writerFP)
	if err != nil {
		t.Fatalf("same-binary open failed: %v", err)
	}
	defer j2.Close()
	if rec, ok := replayRecord(t, j2, 2); !ok || rec.Failure != "recorded by writer" {
		t.Errorf("same-binary replay lost the record: %+v", rec)
	}
}

// A nil *Journal must be inert everywhere — the no-journal path of every
// grid driver goes through these calls.
func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if j.Cells() != 0 || j.Appended() != 0 {
		t.Error("nil journal reports state")
	}
	if _, ok := j.Replay(GridWorkstation, 0); ok {
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
	if _, ok := j.Replay(GridWorkstation, 2); ok {
		t.Error("un-durable cell entered the replay map")
	}
	// Sticky: later appends are refused outright.
	j.Record(GridWorkstation, 3, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 3"}})
	if _, ok := j.Replay(GridWorkstation, 3); ok {
		t.Error("append after sticky error was accepted")
	}

	// Crash now. The record's bytes may be sitting volatile in the file;
	// the durable image must not contain them.
	img := mem.CrashImage()
	j2, err := OpenJournalFS(img, path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Cells(); got != 2 {
		t.Fatalf("recovered %d cells, want the 2 durable ones", got)
	}
	for i := 0; i < 2; i++ {
		if rec, ok := replayRecord(t, j2, i); !ok || rec.Failure != fmt.Sprintf("cell %d", i) {
			t.Errorf("cell %d did not replay intact: %+v", i, rec)
		}
	}
	if _, ok := j2.Replay(GridWorkstation, 2); ok {
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

	j2, err := OpenJournalFS(mem, path, fp)
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
	if rec, ok := replayRecord(t, j2, 1); !ok || rec.Failure != "cell 1 rerun" {
		t.Errorf("re-recorded cell = %+v", rec)
	}
}

// A journal of another format version is refused with the typed
// *FingerprintError, so that a caller can tell it from a damaged one:
// cmd/experiments exits ExitFingerprintMismatch, the service coordinator
// starts it afresh.
func TestJournalOfAnotherVersionIsTyped(t *testing.T) {
	fp := Fingerprint{Binary: "test"}
	path := filepath.Join(t.TempDir(), "old.journal")
	j, err := CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(GridWorkstation, 0, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: "cell 0"}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf(`{"type":"header","version":%d,`, JournalVersion)
	if !strings.HasPrefix(string(data), current) {
		t.Fatalf("journal does not open with %s:\n%s", current, data)
	}
	old := fmt.Sprintf(`{"type":"header","version":%d,`, JournalVersion-1)
	if err := os.WriteFile(path, []byte(old+string(data[len(current):])), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenJournal(path, fp)
	var fe *FingerprintError
	if !errors.As(err, &fe) || fe.What != "format version" || fe.Got != strconv.Itoa(JournalVersion-1) || fe.Want != strconv.Itoa(JournalVersion) {
		t.Fatalf("OpenJournal over a version-%d journal: %v; want a *FingerprintError naming the format version", JournalVersion-1, err)
	}
}

// A read error is no torn tail: OpenJournalFS returns it and leaves every
// byte of the file where it was, however many records follow. A record
// longer than the read buffer is read whole.
func TestJournalReadErrorKeepsTheFile(t *testing.T) {
	fp := Fingerprint{Binary: "test"}
	mem := faultfs.NewMem()
	const path = "/grid.journal"
	j, err := CreateJournalFS(mem, path, fp)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 1<<18)
	for i := 0; i < 4; i++ {
		j.Record(GridWorkstation, i, UniCellRecord{CellOutcome: CellOutcome{Failed: true, Failure: fmt.Sprintf("cell %d %s", i, long)}})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	_, err = OpenJournalFS(failingReads{FS: mem, after: len(want) / 2}, path, fp)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("OpenJournalFS over a failing read: %v; want the read error", err)
	}
	if got, err := mem.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a failed read changed the journal: %d bytes, want %d (%v)", len(got), len(want), err)
	}

	j2, err := OpenJournalFS(mem, path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for i := 0; i < 4; i++ {
		if rec, ok := replayRecord(t, j2, i); !ok || rec.Failure != fmt.Sprintf("cell %d %s", i, long) {
			t.Errorf("long cell %d did not replay", i)
		}
	}
}

// failingReads is a filesystem whose read-only opens fail with EIO once
// after bytes have been read.
type failingReads struct {
	faultfs.FS
	after int
}

func (f failingReads) OpenFile(path string, flag int, perm iofs.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil || flag != os.O_RDONLY {
		return file, err
	}
	return &failingFile{File: file, left: f.after}, nil
}

type failingFile struct {
	faultfs.File
	left int
}

func (f *failingFile) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, syscall.EIO
	}
	n, err := f.File.Read(p[:min(len(p), f.left)])
	f.left -= n
	return n, err
}

// replayRecord decodes the journaled record of workstation cell i.
func replayRecord(t *testing.T, j *Journal, i int) (rec UniCellRecord, ok bool) {
	t.Helper()
	raw, ok := j.Replay(GridWorkstation, i)
	if ok {
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	return rec, ok
}

// A journal-replayed grid cell enters the run's memo: a study of the same
// run that names the cell shares it instead of simulating it again, and
// the resumed run prints what the fresh one printed. On the workstation
// the ablations name Table 7's baseline and its interleaved and blocked
// 4-context cells; on the multiprocessor the remote-latency sweep's 1.0x
// points are Table 10's cells.
func TestResumedGridCellsAreShared(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	uni := journalTestConfig()
	mpc := QuickMPConfig()
	mpc.Apps, mpc.ContextCounts = []string{"ocean"}, []int{4}
	for _, tc := range []struct {
		name string
		fp   Fingerprint
		// run runs the grid under journal j, then the study, and returns
		// what they print.
		run            func(ctx context.Context, j *Journal) (string, error)
		fresh, resumed CellCounts
	}{
		{"workstation", NewFingerprint(&uni, nil, []string{"table7", "ablations"}),
			func(ctx context.Context, j *Journal) (string, error) {
				r, err := workstationGrid.run(ctx, uni, j)
				if err != nil {
					return "", err
				}
				_, study, err := RunSection(ctx, "ablations", uni, mpc)
				return RenderUniSections(Selection([]string{"table7"}), r) + study, err
			},
			// The grid's 5 cells and the ablations' 4 variants of their own.
			CellCounts{Simulated: 9, Shared: 3}, CellCounts{Simulated: 4, Shared: 3}},
		{"multiprocessor", NewFingerprint(nil, &mpc, []string{"table10"}),
			func(ctx context.Context, j *Journal) (string, error) {
				r, err := multiprocessorGrid.run(ctx, mpc, j)
				if err != nil {
					return "", err
				}
				sweep, err := RemoteLatencySweepCtx(ctx, mpc, "ocean")
				if err != nil {
					return "", err
				}
				return RenderMPSections(Selection([]string{"table10"}), r) + FormatSweep(sweep), nil
			},
			// The grid's 3 cells and the sweep's 9 other points.
			CellCounts{Simulated: 12, Shared: 3}, CellCounts{Simulated: 9, Shared: 3}},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".journal")
		run := func(resume bool) (string, CellCounts) {
			t.Helper()
			open := CreateJournal
			if resume {
				open = OpenJournal
			}
			j, err := open(path, tc.fp)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			before := Cells()
			out, err := tc.run(NewRun(2).Context(context.Background()), j)
			if err != nil {
				t.Fatal(err)
			}
			return out, Cells().Sub(before)
		}
		fresh, got := run(false)
		if got != tc.fresh {
			t.Errorf("%s, fresh run: %v, want %v", tc.name, got, tc.fresh)
		}
		resumed, got := run(true)
		if got != tc.resumed {
			t.Errorf("%s, resumed run: %v, want %v (the journaled cells shared, not simulated)", tc.name, got, tc.resumed)
		}
		if resumed != fresh {
			t.Errorf("%s: the resumed run prints\n%s\nwant\n%s", tc.name, resumed, fresh)
		}
	}
}

package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/guard"
)

// Absolute bytes of a small two-grid evaluation (quick configs cut to
// one workload mix and one application), captured at 46f3332 — before
// the two grids were folded onto one core — so that rewrite, and any
// later one, is judged against fixed digests rather than against itself.
// A digest moves only when simulated behaviour, the record format or the
// rendering changes, and such a change says so by updating this table.
// The last three such changes kept an in-flight upgrade's ownership
// when its line's shared copy is evicted; dropped the header's
// checkpoint stamp, bumping the journal to version 4 (the fingerprints
// moved, no cell line did); and took parallelism out of every record,
// bumping the journal to version 5 (the fingerprints and the -json
// moved, no text or cell line did).
var gridGolden = map[string]string{
	"fingerprint":         "50ff0bbeb610f4b982a82bd3",
	"fingerprint.default": "67e7501fef7cbf6801ecda67",
	"fingerprint.quick":   "fdf573befbc3b9ed7cbf4ef1",
	"local.text":          "6f74b8ecb1d5510a6158517fdd2f27cec612974547cc4932058bf622957a966f",
	"local.json":          "7f55d1d79617516aae0d3139a6d21c0ba8ca0a9dff7298c3b079af6da054f27d",
	"local.cells":         "ba65a9d94cb64ba7b6271118a5003992f32858ed385a55411d3483509a22140a",
	"failed.text":         "acd25f3761ceafe0b7f6903183c05b47e5351d352872fd91fc72c218f8920e13",
	"failed.json":         "1c329eac02f3b8b6a7ff8d7a7ffba31c2387b8acced7ed634004d2da2743b5df",
	"failed.cells":        "acb41e0d2eb5c6f35b592b904fdf1052d826d1c6c579bfcd87abb03902d3241c",
}

// dispatchFailure is the record a coordinator journals for a cell whose
// leases all expired, with the golden run's one attempt per cell.
const dispatchFailure = "dispatch: 1 lease attempts expired without a result"

func goldenSpec() JobSpec {
	return JobSpec{Uni: quickUniSpec(), MP: quickMPSpec()}
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// cellLines digests a journal's cell records in sorted order: completion
// order is scheduling, the set of lines is the run. The header carries
// the writing binary's identity and is checked by its hash field alone.
func cellLines(t *testing.T, path, wantHeaderHash string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	var header struct {
		Type    string `json:"type"`
		Version int    `json:"version"`
		Hash    string `json:"hash"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Type != "header" || header.Version != experiments.JournalVersion || header.Hash != wantHeaderHash {
		t.Errorf("journal header %+v, want a version-%d header with hash %s", header, experiments.JournalVersion, wantHeaderHash)
	}
	cells := lines[1:]
	sort.Strings(cells)
	return digest([]byte(strings.Join(cells, "\n")))
}

func checkGolden(t *testing.T, got map[string]string) {
	t.Helper()
	for name, g := range got {
		if want := gridGolden[name]; g != want {
			t.Errorf("%s = %s, pinned %s", name, g, want)
		}
	}
}

// The single-process run: both grids through the pool into one journal,
// sections and -json rendered the way cmd/experiments prints them.
func TestGridGoldenLocal(t *testing.T) {
	spec := goldenSpec()
	grids, fp, err := experiments.Grids(nil, spec.Uni, spec.MP)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := experiments.CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*experiments.GridReport
	for _, g := range grids {
		rep, err := g.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("golden spec runs %d grids, want 2", len(reps))
	}
	text := reps[0].Text + reps[1].Text
	blob, err := json.MarshalIndent(map[string]any{"workstation": reps[0].Value, "multiprocessor": reps[1].Value}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	du, dm := experiments.DefaultUniConfig(), experiments.DefaultMPConfig()
	qu, qm := experiments.QuickUniConfig(), experiments.QuickMPConfig()
	checkGolden(t, map[string]string{
		"fingerprint":         fp.Hash(),
		"fingerprint.default": experiments.NewFingerprint(&du, &dm, nil).Hash(),
		"fingerprint.quick":   experiments.NewFingerprint(&qu, &qm, nil).Hash(),
		"local.text":          digest([]byte(text)),
		"local.json":          digest(blob),
		"local.cells":         cellLines(t, path, fp.Hash()),
	})
}

// runFailedJob drives the golden job through a coordinator by hand: every
// cell is leased one at a time and reported at once, except cell 2 of
// each grid, whose lease is left to expire. With one attempt per cell
// the coordinator gives up on those two and journals its own failed
// record for each. It returns the state directory and the job's result.
// Every record is simulated from the submitted spec before the job
// exists, so no lease is held across a simulation, which under -race
// can outlast the one-second lease.
func runFailedJob(t *testing.T) (dir string, res JobResult) {
	t.Helper()
	spec := goldenSpec()
	ctx := context.Background()
	grids, _, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	records := map[string][]json.RawMessage{}
	for _, g := range grids {
		recs := make([]json.RawMessage, g.Size())
		for i := range recs {
			if recs[i], err = g.RunCell(ctx, i); err != nil {
				t.Fatal(err)
			}
		}
		records[g.Name()] = recs
	}
	dir = t.TempDir()
	coord := newTestCoordinator(t, Config{Dir: dir, LeaseTTL: time.Second,
		Retry: guard.Retry{Attempts: 1}})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	id, cells, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < cells; n++ {
		var resp leaseResponse
		if err := client.call(ctx, http.MethodPost, "/api/lease", leaseRequest{Worker: "golden", Max: 1}, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Leases) != 1 {
			t.Fatalf("lease %d of %d granted %d cells", n, cells, len(resp.Leases))
		}
		l := resp.Leases[0]
		if l.Index == 2 {
			continue
		}
		recs, ok := records[l.Grid]
		if !ok || l.Index >= len(recs) {
			t.Fatalf("lease names cell %s/%d, which the spec does not run", l.Grid, l.Index)
		}
		payload := recs[l.Index]
		var ack completeResponse
		if err := client.call(ctx, http.MethodPost, "/api/complete", completeRequest{Worker: "golden",
			Job: l.Job, Grid: l.Grid, Index: l.Index, LeaseID: l.LeaseID, Record: payload}, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Status != "accepted" {
			t.Fatalf("%s/%d report was a %s", l.Grid, l.Index, ack.Status)
		}
	}
	res, err = client.WaitResult(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	return dir, res
}

// The coordinator's side of the same bytes: assembly from its journal,
// including the failed records it writes itself.
func TestGridGoldenCoordinatorFailedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := goldenSpec()
	dir, res := runFailedJob(t)
	if res.Failures != 2 || !strings.Contains(string(res.JSON), dispatchFailure) {
		t.Errorf("result counts %d failures; want the two expired cells, failed with %q", res.Failures, dispatchFailure)
	}
	fp := experiments.NewFingerprint(spec.Uni, spec.MP, nil)
	checkGolden(t, map[string]string{
		"failed.text":  digest([]byte(res.Text)),
		"failed.json":  digest(res.JSON),
		"failed.cells": cellLines(t, filepath.Join(dir, "job-1.journal"), fp.Hash()),
	})
}

// A state directory written by the coordinator of the version-5 journal
// (the job above, copied out after it completed) is recovered as it
// stands: every cell replays, none is dispatched, and the result is the
// pinned one.
func TestRecoverParentStateDirectory(t *testing.T) {
	dir := t.TempDir()
	copyState(t, "parent-state", dir)
	coord := newTestCoordinator(t, Config{Dir: dir})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()
	st, err := client.Status(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Done != st.Cells || st.Failed != 2 {
		t.Fatalf("recovered job: %+v; want complete with the two failed cells", st)
	}
	var resp leaseResponse
	if err := client.call(ctx, http.MethodPost, "/api/lease", leaseRequest{Worker: "idle", Max: 8}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Leases) != 0 {
		t.Errorf("recovered job dispatched %d cells; every one was journaled", len(resp.Leases))
	}
	res, err := client.Result(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, map[string]string{
		"failed.text": digest([]byte(res.Text)),
		"failed.json": digest(res.JSON),
	})
}

// A state directory the version-3 coordinator wrote (a spec file beside
// a journal whose header records the job with its parallelism zeroed and
// a checkpoint stamp) is upgraded, not refused: the coordinator ignores
// the spec file, rebuilds the job from the journal header, starts the
// journal afresh and re-runs every cell to the single-process bytes of
// the spec the client submitted. Parallelism enters no result, so the
// upgraded job prints exactly those bytes. A spec file with no journal
// is no job.
func TestRecoverVersion3StateDirectory(t *testing.T) {
	dir := t.TempDir()
	copyState(t, "v3-state", dir)
	data, err := os.ReadFile(filepath.Join(dir, "job-1.spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-2.spec.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var submitted JobSpec
	if err := json.Unmarshal(data, &submitted); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "job-1.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var header struct{ Version int }
	first, _, _ := strings.Cut(string(journal), "\n")
	if err := json.Unmarshal([]byte(first), &header); err != nil || header.Version != 3 {
		t.Fatalf("the fixture's journal header is version %d (%v), want 3", header.Version, err)
	}
	wantText, wantJSON := reference(t, submitted)

	coord := newTestCoordinator(t, Config{Dir: dir})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()
	st, err := client.Status(ctx, 1)
	if err != nil || st.Done != 0 || st.Cells == 0 {
		t.Fatalf("upgraded job: %+v, %v; want its cells and none replayed", st, err)
	}
	if st, err := client.Status(ctx, 2); !isStatus(err, http.StatusNotFound) {
		t.Errorf("a spec file with no journal became job 2: %+v, %v", st, err)
	}
	startWorker(t, srv.URL, WorkerConfig{Name: "w", PollInterval: 10 * time.Millisecond})
	assertIdentical(t, waitResult(t, srv.URL, 1), wantText, wantJSON)
}

// copyState copies the files of testdata/<name> into dir.
func copyState(t *testing.T, name, dir string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", name, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

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
var gridGolden = map[string]string{
	"fingerprint":         "ad783e3b5804648f89bbf3ba",
	"fingerprint.default": "49907c9c743089086702bbb3",
	"fingerprint.quick":   "a1d0e64562ac0e0b0cffa126",
	"local.text":          "e1a9e807f3c746cdbc6d566277c737d97a95bae13fc5a559ae9280d77e2ce134",
	"local.json":          "038527c4989b15e7e5a0aa82963c051587cd0765b79333789e21b637a19246f7",
	"local.cells":         "760a1db8a92e4d7d0468fd225591b68f6d36fc7073ab2821bbec824527ab69f3",
	"failed.text":         "63a53baef9c86066efc03eac7296373b0dfc4ee25d3eceabb041f898fc3a31f0",
	"failed.json":         "48d99d913f709f6472d644131e19a8ec5fa73c4c90a07581104fda5bd225b651",
	"failed.cells":        "ca1cf360e9167d7f90d6bf3e09f453b148d6893a9bf1cf165361692e7cba4e12",
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
	if header.Type != "header" || header.Version != 2 || header.Hash != wantHeaderHash {
		t.Errorf("journal header %+v, want a version-2 header with hash %s", header, wantHeaderHash)
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
	fp := experiments.NewFingerprint(spec.Uni, spec.MP, nil)
	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := experiments.CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	uni, mpc := *spec.Uni, *spec.MP
	uni.Journal, mpc.Journal = j, j
	ur, err := experiments.RunUniprocessorCtx(context.Background(), uni)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := experiments.RunMultiprocessorCtx(context.Background(), mpc)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sel := experiments.Selection(nil)
	text := experiments.RenderUniSections(sel, ur) + experiments.RenderMPSections(sel, mr)
	blob, err := json.MarshalIndent(map[string]any{"workstation": ur, "multiprocessor": mr}, "", "  ")
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
func runFailedJob(t *testing.T) (dir string, res JobResult) {
	t.Helper()
	spec := goldenSpec()
	ctx := context.Background()
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
		var payload []byte
		switch l.Grid {
		case "workstation":
			rec, err := experiments.RunUniCell(ctx, *l.Spec.Uni, l.Index)
			if err != nil {
				t.Fatal(err)
			}
			payload, _ = json.Marshal(rec)
		case "multiprocessor":
			rec, err := experiments.RunMPCell(ctx, *l.Spec.MP, l.Index)
			if err != nil {
				t.Fatal(err)
			}
			payload, _ = json.Marshal(rec)
		default:
			t.Fatalf("lease names grid %q", l.Grid)
		}
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

// A state directory written by the coordinator of 46f3332 (the job
// above, copied out after it completed) is recovered as it stands:
// every cell replays, none is dispatched, and the result is the pinned
// one.
func TestRecoverParentStateDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"job-1.spec.json", "job-1.journal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "parent-state", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
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

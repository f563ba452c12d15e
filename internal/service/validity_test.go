package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
)

// noOutcome decodes as a record of either grid and is neither a result
// nor a diagnosed failure. It used to mean three things: rejected by the
// coordinator, FAIL in the workstation table, and a completed 0-cycle
// cell (a baseline with speedup 1.00) in the multiprocessor table.
var noOutcome = json.RawMessage(`{"stats":{}}`)

// forgedJournal writes a journal for spec that claims cell 1 of every
// grid completed with noOutcome.
func forgedJournal(t *testing.T, path string, spec JobSpec) {
	t.Helper()
	grids, fp, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	j, err := experiments.CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grids {
		j.Record(g.Name(), 1, noOutcome)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// One validity rule for a cell record, whichever way the record arrives
// and whichever grid it claims to settle: it is refused, the cell runs
// again, and the output is the clean run's. (The third way in, a
// -resume, is cmd/experiments' TestResumeRerunsRecordThatIsNoOutcome.)
func TestRecordThatIsNoOutcomeIsNeverAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := goldenSpec()
	wantText, wantJSON := reference(t, spec)
	ctx := context.Background()

	t.Run("complete", func(t *testing.T) {
		coord := newTestCoordinator(t, Config{})
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()
		client := &Client{Base: srv.URL}
		id, cells, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		var resp leaseResponse
		if err := client.call(ctx, http.MethodPost, "/api/lease", leaseRequest{Worker: "forger", Max: cells}, &resp); err != nil {
			t.Fatal(err)
		}
		reported := map[string]bool{}
		for _, l := range resp.Leases {
			if l.Index != 1 {
				continue
			}
			reported[l.Grid] = true
			err := client.call(ctx, http.MethodPost, "/api/complete", completeRequest{Worker: "forger",
				Job: l.Job, Grid: l.Grid, Index: l.Index, LeaseID: l.LeaseID, Record: noOutcome}, nil)
			if ae, ok := err.(*apiError); !ok || ae.Status != http.StatusBadRequest {
				t.Errorf("%s/%d: report of %s answered %v, want a 400", l.Grid, l.Index, noOutcome, err)
			}
		}
		if len(reported) != 2 {
			t.Fatalf("forged a report for grids %v, want both", reported)
		}
		if st, err := client.Status(ctx, id); err != nil || st.Done != 0 {
			t.Errorf("after the refused reports: %+v, %v; want no cell done", st, err)
		}
		// The forger drains; a real worker runs every cell.
		var ids []int64
		for _, l := range resp.Leases {
			ids = append(ids, l.LeaseID)
		}
		if n := release(t, srv.URL, releaseRequest{Worker: "forger", LeaseIDs: ids}); n != cells {
			t.Fatalf("released %d of %d leases", n, cells)
		}
		startWorker(t, srv.URL, WorkerConfig{Name: "honest", PollInterval: 10 * time.Millisecond})
		assertIdentical(t, waitResult(t, srv.URL, id), wantText, wantJSON)
	})

	t.Run("recovery", func(t *testing.T) {
		dir := t.TempDir()
		forgedJournal(t, filepath.Join(dir, "job-1.journal"), spec)
		coord := newTestCoordinator(t, Config{Dir: dir})
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()
		if st, err := (&Client{Base: srv.URL}).Status(ctx, 1); err != nil || st.Done != 0 {
			t.Errorf("recovered job: %+v, %v; want no cell done on the forged records' word", st, err)
		}
		counter := newExecCounter()
		startWorker(t, srv.URL, WorkerConfig{Name: "honest", PollInterval: 10 * time.Millisecond, OnCell: counter.hook})
		assertIdentical(t, waitResult(t, srv.URL, 1), wantText, wantJSON)
		for _, key := range []string{"1/workstation/1", "1/multiprocessor/1"} {
			if counter.snapshot()[key] != 1 {
				t.Errorf("cell %s ran %d times after recovery, want once", key, counter.snapshot()[key])
			}
		}
	})
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/guard"
)

// leaseOne leases exactly one cell for worker via the HTTP API and
// returns it.
func leaseOne(t *testing.T, base, worker string) Lease {
	t.Helper()
	cl := &Client{Base: base}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var resp leaseResponse
		if err := cl.call(context.Background(), http.MethodPost, "/api/lease",
			leaseRequest{Worker: worker, Max: 1}, &resp); err != nil {
			t.Fatalf("lease: %v", err)
		}
		if len(resp.Leases) == 1 {
			return resp.Leases[0]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no lease granted within deadline")
	return Lease{}
}

func heartbeat(t *testing.T, base string, req heartbeatRequest) heartbeatResponse {
	t.Helper()
	var resp heartbeatResponse
	if err := (&Client{Base: base}).call(context.Background(), http.MethodPost, "/api/heartbeat", req, &resp); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	return resp
}

// The stale-lease fencing satellite, part 1: a heartbeat renewal that
// arrives after the expiry sweep has reclaimed the lease must be
// rejected — even though the same cell has been re-leased (to anyone)
// in the meantime, the OLD lease ID must never renew the NEW lease.
func TestStaleHeartbeatRenewalRejected(t *testing.T) {
	c := newTestCoordinator(t, Config{
		LeaseTTL: 100 * time.Millisecond,
		Retry:    guard.Retry{Attempts: 10},
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := JobSpec{Uni: quickUniSpec()}
	if _, _, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	stale := leaseOne(t, srv.URL, "w1")
	// A prompt fenced renewal succeeds.
	if hb := heartbeat(t, srv.URL, heartbeatRequest{Worker: "w1", LeaseIDs: []int64{stale.LeaseID}}); hb.Renewed != 1 || len(hb.Expired) != 0 {
		t.Fatalf("live renewal = %+v, want 1 renewed", hb)
	}
	// A heartbeat naming no leases renews nothing: there is no unfenced
	// "renew whatever I hold" form for a stale worker to fall into.
	if hb := heartbeat(t, srv.URL, heartbeatRequest{Worker: "w1"}); hb.Renewed != 0 || len(hb.Expired) != 0 {
		t.Fatalf("empty renewal = %+v, want nothing renewed", hb)
	}

	// Let the lease expire (the next request's sweep reclaims it), then
	// hand the cell to another worker.
	time.Sleep(150 * time.Millisecond)
	fresh := leaseOne(t, srv.URL, "w2")
	if fresh.LeaseID == stale.LeaseID {
		t.Fatalf("re-lease reused lease ID %d", stale.LeaseID)
	}

	// The late renewal from the fenced worker: rejected, reported.
	hb := heartbeat(t, srv.URL, heartbeatRequest{Worker: "w1", LeaseIDs: []int64{stale.LeaseID}})
	if hb.Renewed != 0 || len(hb.Expired) != 1 || hb.Expired[0] != stale.LeaseID {
		t.Fatalf("stale renewal = %+v, want 0 renewed + the stale ID expired", hb)
	}
	// And it must not have touched w2's lease: w2's own renewal works.
	if hb := heartbeat(t, srv.URL, heartbeatRequest{Worker: "w2", LeaseIDs: []int64{fresh.LeaseID}}); hb.Renewed != 1 {
		t.Fatalf("fresh renewal after stale attempt = %+v", hb)
	}

	// A fenced worker cannot renew the new lease ID either (wrong owner).
	if hb := heartbeat(t, srv.URL, heartbeatRequest{Worker: "w1", LeaseIDs: []int64{fresh.LeaseID}}); hb.Renewed != 0 {
		t.Fatalf("w1 renewed w2's lease: %+v", hb)
	}
}

// Part 2: the fenced worker's completion — computed under the expired
// lease, delivered after the cell was re-run — must dedup cleanly
// against the journaled record, not double-record.
func TestFencedWorkerCompletionDedups(t *testing.T) {
	c := newTestCoordinator(t, Config{
		LeaseTTL: 100 * time.Millisecond,
		Retry:    guard.Retry{Attempts: 10},
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := JobSpec{Uni: quickUniSpec()}
	cl := &Client{Base: srv.URL}
	job, _, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	stale := leaseOne(t, srv.URL, "w1")
	rec, err := experiments.RunUniCell(context.Background(), *spec.Uni, stale.Index)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(rec)

	// The lease expires; the redispatched cell completes via w2 first.
	// An expired cell is pending again at once, and it is the first
	// pending cell, so it is the next one leased.
	time.Sleep(150 * time.Millisecond)
	fresh := leaseOne(t, srv.URL, "w2")
	if fresh.Grid != stale.Grid || fresh.Index != stale.Index {
		t.Fatalf("next lease is %s/%d, want the expired %s/%d", fresh.Grid, fresh.Index, stale.Grid, stale.Index)
	}
	var resp completeResponse
	if err := cl.call(context.Background(), http.MethodPost, "/api/complete", completeRequest{
		Worker: "w2", Job: job, Grid: fresh.Grid, Index: fresh.Index, LeaseID: fresh.LeaseID, Record: payload,
	}, &resp); err != nil || resp.Status != "accepted" {
		t.Fatalf("w2 completion = %q, %v", resp.Status, err)
	}

	// The fenced worker's late report: same deterministic payload, so it
	// must be a duplicate, not a second record and not a mismatch.
	if err := cl.call(context.Background(), http.MethodPost, "/api/complete", completeRequest{
		Worker: "w1", Job: job, Grid: stale.Grid, Index: stale.Index, LeaseID: stale.LeaseID, Record: payload,
	}, &resp); err != nil || resp.Status != "duplicate" {
		t.Fatalf("fenced completion = %q, %v; want duplicate", resp.Status, err)
	}

	st, err := cl.Status(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Dupes != 1 || st.Mismatches != 0 {
		t.Fatalf("status after fenced dedup = %+v, want done 1, dupes 1, mismatches 0", st)
	}
}

// The complete-retry-forever satellite: a worker stuck re-reporting a
// record to a coordinator that keeps failing must unwind — goroutines
// and all — the moment its context is cancelled.
func TestWorkerCompleteRetryHonorsCancel(t *testing.T) {
	spec := JobSpec{Uni: quickUniSpec()}
	var completes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/lease", func(w http.ResponseWriter, r *http.Request) {
		// One lease, once; later polls get nothing.
		var req leaseRequest
		json.NewDecoder(r.Body).Decode(&req)
		var resp leaseResponse
		if completes.Load() == 0 && req.Worker == "stuck" {
			resp.Leases = []Lease{{Job: 1, Grid: experiments.GridWorkstation, Index: 0,
				LeaseID: 7, Attempt: 1, TTLMillis: 60_000, Spec: spec}}
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /api/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, heartbeatResponse{Renewed: 1})
	})
	mux.HandleFunc("POST /api/complete", func(w http.ResponseWriter, r *http.Request) {
		// Always retryable: the worker will loop here forever.
		completes.Add(1)
		httpError(w, http.StatusInternalServerError, "journal on fire")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// A dedicated transport, so lingering keep-alive connections (server
	// goroutines, not worker leaks) can be torn down before counting.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "stuck",
			PollInterval: 20 * time.Millisecond, Logf: t.Logf,
			HTTPClient: &http.Client{Transport: tr}}).Run(ctx)
	}()

	// Wait until the worker is demonstrably in the retry loop.
	deadline := time.Now().Add(10 * time.Second)
	for completes.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if completes.Load() < 3 {
		t.Fatal("worker never reached the complete-retry loop")
	}

	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker.Run did not return after cancel — retry loop leaked")
	}

	// Every worker goroutine (lease loop, heartbeat, runLease, complete
	// retries) must drain; allow the runtime a moment to reap them.
	for time.Now().Before(deadline) {
		tr.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancel — leak", before, runtime.NumGoroutine())
}

// release posts a fenced release and returns how many leases it freed.
func release(t *testing.T, base string, req releaseRequest) int {
	t.Helper()
	var resp releaseResponse
	if err := (&Client{Base: base}).call(context.Background(), http.MethodPost, "/api/release", req, &resp); err != nil {
		t.Fatalf("release: %v", err)
	}
	return resp.Released
}

// completeCell simulates the leased cell and reports it as worker.
func completeCell(t *testing.T, base string, spec JobSpec, l Lease, worker string) string {
	t.Helper()
	rec, err := experiments.RunUniCell(context.Background(), *spec.Uni, l.Index)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(rec)
	var resp completeResponse
	if err := (&Client{Base: base}).call(context.Background(), http.MethodPost, "/api/complete", completeRequest{
		Worker: worker, Job: l.Job, Grid: l.Grid, Index: l.Index, LeaseID: l.LeaseID, Record: payload,
	}, &resp); err != nil {
		t.Fatalf("complete: %v", err)
	}
	return resp.Status
}

// A heartbeat that races a completion — the worker reported the cell but
// has not yet dropped the lease ID — names a lease that is finished, not
// lost: it must come back neither renewed nor expired.
func TestHeartbeatAfterCompletionNotExpired(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := JobSpec{Uni: quickUniSpec()}
	if _, _, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	done := leaseOne(t, srv.URL, "w1")
	live := leaseOne(t, srv.URL, "w1")
	if s := completeCell(t, srv.URL, spec, done, "w1"); s != "accepted" {
		t.Fatalf("completion = %q, want accepted", s)
	}
	hb := heartbeat(t, srv.URL, heartbeatRequest{Worker: "w1", LeaseIDs: []int64{done.LeaseID, live.LeaseID, 999}})
	if hb.Renewed != 1 || len(hb.Expired) != 1 || hb.Expired[0] != 999 {
		t.Fatalf("heartbeat = %+v, want the live lease renewed, the finished one unreported, only the unknown ID expired", hb)
	}
}

// Release is fenced like the heartbeat: it frees only a live lease the
// named worker still holds, refunds the attempt, and is idempotent;
// foreign, finished and unknown IDs change nothing.
func TestReleaseFencing(t *testing.T) {
	c := newTestCoordinator(t, Config{LeaseTTL: time.Minute})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	spec := JobSpec{Uni: quickUniSpec()}
	cl := &Client{Base: srv.URL}
	job, _, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	finished := leaseOne(t, srv.URL, "w1")
	held := leaseOne(t, srv.URL, "w2")
	if s := completeCell(t, srv.URL, spec, finished, "w1"); s != "accepted" {
		t.Fatalf("completion = %q, want accepted", s)
	}

	// w1 names w2's lease, its own finished one and one nobody granted.
	if n := release(t, srv.URL, releaseRequest{Worker: "w1", LeaseIDs: []int64{held.LeaseID, finished.LeaseID, 999}}); n != 0 {
		t.Fatalf("foreign/finished/unknown release freed %d leases, want 0", n)
	}
	if hb := heartbeat(t, srv.URL, heartbeatRequest{Worker: "w2", LeaseIDs: []int64{held.LeaseID}}); hb.Renewed != 1 {
		t.Fatalf("w2's lease after w1's release attempt = %+v, want it still live", hb)
	}
	if st, err := cl.Status(context.Background(), job); err != nil || st.Done != 1 {
		t.Fatalf("status after no-op release = %+v, %v; want 1 done", st, err)
	}

	// The holder's own release frees it, once.
	if n := release(t, srv.URL, releaseRequest{Worker: "w2", LeaseIDs: []int64{held.LeaseID}}); n != 1 {
		t.Fatalf("holder's release freed %d leases, want 1", n)
	}
	if n := release(t, srv.URL, releaseRequest{Worker: "w2", LeaseIDs: []int64{held.LeaseID}}); n != 0 {
		t.Fatalf("repeated release freed %d leases, want 0", n)
	}
	if hb := heartbeat(t, srv.URL, heartbeatRequest{Worker: "w2", LeaseIDs: []int64{held.LeaseID}}); hb.Renewed != 0 || len(hb.Expired) != 1 {
		t.Fatalf("heartbeat on a released lease = %+v, want it fenced off", hb)
	}
	// The cell is pending again at once — the one-minute TTL cannot have
	// run out — under a fresh ID, with the attempt refunded.
	again := leaseOne(t, srv.URL, "w3")
	if again.Grid != held.Grid || again.Index != held.Index {
		t.Fatalf("next lease is %s/%d, want the released %s/%d", again.Grid, again.Index, held.Grid, held.Index)
	}
	if again.LeaseID == held.LeaseID || again.Attempt != 1 {
		t.Fatalf("re-grant = lease %d attempt %d, want a new ID and attempt 1", again.LeaseID, again.Attempt)
	}
}

// BenchmarkHeartbeatWithFinishedJobs times one heartbeat renewing one
// live lease, with 0 and 500 finished jobs (five cells each, completed as
// failed records) behind it: what a long-lived coordinator's per-request
// cost does as its job table grows. The requests go to the handler
// directly, so the time is the coordinator's, not the loopback's.
func BenchmarkHeartbeatWithFinishedJobs(b *testing.B) {
	for _, finished := range []int{0, 500} {
		b.Run(fmt.Sprintf("finished=%d", finished), func(b *testing.B) {
			c, err := NewCoordinator(Config{Dir: "/state", FS: faultfs.NewMem(), LeaseTTL: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			h := c.Handler()
			post := func(path string, req, resp any) {
				body, _ := json.Marshal(req)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if rec.Code >= 300 {
					b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
				}
				if resp != nil {
					if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
						b.Fatal(err)
					}
				}
			}
			spec := JobSpec{Uni: tinyUniSpec()}
			grids, _, err := spec.resolve()
			if err != nil {
				b.Fatal(err)
			}
			failed := grids[0].FailedRecord("benchmark")
			var live Lease
			for k := 0; k <= finished; k++ {
				post("/api/jobs", spec, nil)
				var got leaseResponse
				post("/api/lease", leaseRequest{Worker: "w", Max: 5}, &got)
				if k == finished {
					live = got.Leases[0] // the last job stays running
					break
				}
				for _, l := range got.Leases {
					post("/api/complete", completeRequest{Worker: "w", Job: l.Job, Grid: l.Grid,
						Index: l.Index, LeaseID: l.LeaseID, Record: failed}, nil)
				}
			}
			req := heartbeatRequest{Worker: "w", LeaseIDs: []int64{live.LeaseID}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var resp heartbeatResponse
				post("/api/heartbeat", req, &resp)
				if resp.Renewed != 1 {
					b.Fatalf("heartbeat = %+v, want the live lease renewed", resp)
				}
			}
		})
	}
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// tinyUniSpec is quickUniSpec with short slices: five cells of a few
// milliseconds, for tests that run many jobs.
func tinyUniSpec() *experiments.UniConfig {
	cfg := quickUniSpec()
	cfg.SliceCycles = 2_000
	return cfg
}

// stubCoordinator is a scripted coordinator for worker tests: it answers
// heartbeat, and leaves lease, complete and release to the test.
type stubCoordinator struct {
	lease    func(w http.ResponseWriter, req leaseRequest)
	complete func(req completeRequest)

	mu       sync.Mutex
	released []int64
}

func (s *stubCoordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, heartbeatResponse{})
	})
	mux.HandleFunc("POST /api/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		json.NewDecoder(r.Body).Decode(&req)
		s.lease(w, req)
	})
	mux.HandleFunc("POST /api/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		json.NewDecoder(r.Body).Decode(&req)
		if s.complete != nil {
			s.complete(req)
		}
		writeJSON(w, http.StatusOK, completeResponse{Status: "accepted"})
	})
	mux.HandleFunc("POST /api/release", func(w http.ResponseWriter, r *http.Request) {
		var req releaseRequest
		json.NewDecoder(r.Body).Decode(&req)
		s.mu.Lock()
		s.released = append(s.released, req.LeaseIDs...)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, releaseResponse{Released: len(req.LeaseIDs)})
	})
	return mux
}

// stubLease is a first-attempt lease on cell 0 of the workstation grid.
func stubLease(spec JobSpec, id int64) Lease {
	return Lease{Job: 1, Grid: experiments.GridWorkstation, Index: 0,
		LeaseID: id, Attempt: 1, TTLMillis: 60_000, Spec: spec}
}

func (s *stubCoordinator) releasedIDs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.released...)
}

// The slot wake-up: a one-slot worker asks for its next lease the moment
// the previous cell's report is answered, not on a timer tick. At the
// parent commit the gap was uniform on 0–20 ms (median 10).
func TestWorkerLeasesNextCellWithoutDelay(t *testing.T) {
	const cells = 20
	spec := JobSpec{Uni: quickUniSpec()}
	var mu sync.Mutex
	var answered time.Time // when the last complete was answered
	var gaps []time.Duration
	granted := 0
	finished := make(chan struct{})
	stub := &stubCoordinator{
		lease: func(w http.ResponseWriter, req leaseRequest) {
			mu.Lock()
			defer mu.Unlock()
			if granted == cells {
				writeJSON(w, http.StatusOK, leaseResponse{})
				return
			}
			if !answered.IsZero() {
				gaps = append(gaps, time.Since(answered))
			}
			granted++
			writeJSON(w, http.StatusOK, leaseResponse{Leases: []Lease{stubLease(spec, int64(granted))}})
		},
		complete: func(req completeRequest) {
			mu.Lock()
			defer mu.Unlock()
			answered = time.Now()
			if req.LeaseID == cells {
				close(finished)
			}
		},
	}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()
	startWorker(t, srv.URL, WorkerConfig{Name: "solo", Slots: 1, PollInterval: 20 * time.Millisecond})

	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("worker never finished its 20 leases")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gaps) != cells-1 {
		t.Fatalf("recorded %d complete→lease gaps, want %d", len(gaps), cells-1)
	}
	sort.Slice(gaps, func(i, k int) bool { return gaps[i] < gaps[k] })
	if median := gaps[len(gaps)/2]; median >= 5*time.Millisecond {
		t.Errorf("median gap between answering a report and the next lease request is %v, want < 5ms (all: %v)", median, gaps)
	}
}

// A worker has no registration handshake: its first request is a lease,
// which makes it known to the coordinator.
func TestWorkerFirstRequestIsALease(t *testing.T) {
	var mu sync.Mutex
	var requests []string
	first := make(chan struct{})
	stub := &stubCoordinator{lease: func(w http.ResponseWriter, req leaseRequest) {
		writeJSON(w, http.StatusOK, leaseResponse{})
	}}
	h := stub.handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests = append(requests, r.Method+" "+r.URL.Path)
		if len(requests) == 1 {
			close(first)
		}
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	startWorker(t, srv.URL, WorkerConfig{Name: "new", PollInterval: 10 * time.Millisecond})
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("worker sent no request")
	}
	mu.Lock()
	defer mu.Unlock()
	if requests[0] != "POST /api/lease" {
		t.Errorf("a new worker's first request is %q, want POST /api/lease", requests[0])
	}
}

// A worker started before its coordinator waits for it: the lease loop
// retries the refused connection every PollInterval and starts leasing
// once the coordinator listens.
func TestWorkerStartedBeforeCoordinatorLeases(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var refused atomic.Int64
	startWorker(t, "http://"+addr, WorkerConfig{Name: "early", PollInterval: 10 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "lease: %v (retrying)") {
				refused.Add(1)
			}
		}})
	for deadline := time.Now().Add(10 * time.Second); refused.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatal("worker did not retry its lease against an address with no listener")
		}
		time.Sleep(5 * time.Millisecond)
	}

	leasing := make(chan struct{})
	var once sync.Once
	stub := &stubCoordinator{lease: func(w http.ResponseWriter, req leaseRequest) {
		once.Do(func() { close(leasing) })
		writeJSON(w, http.StatusOK, leaseResponse{})
	}}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv := httptest.NewUnstartedServer(stub.handler())
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	defer srv.Close()
	select {
	case <-leasing:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never leased from the coordinator that came up after it")
	}
}

// A worker with no name fails before its first request: the coordinator
// refuses every lease that names no worker, so retrying would never end.
func TestWorkerWithoutNameFailsAtOnce(t *testing.T) {
	var asked atomic.Int64
	stub := &stubCoordinator{lease: func(w http.ResponseWriter, req leaseRequest) {
		asked.Add(1)
		httpError(w, http.StatusBadRequest, "lease needs a worker name")
	}}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := NewWorker(WorkerConfig{Coordinator: srv.URL, PollInterval: 20 * time.Millisecond, Logf: t.Logf}).Run(ctx)
	if err == nil || ctx.Err() != nil {
		t.Fatalf("Run = %v after %d lease requests, want an error before the first", err, asked.Load())
	}
	if n := asked.Load(); n != 0 {
		t.Errorf("a nameless worker sent %d lease requests, want none", n)
	}
}

// A lease request in flight when the drain starts is not abandoned: the
// worker waits for the answer and hands the late grant straight back,
// without ever starting the cell.
func TestDrainHandsBackLateGrant(t *testing.T) {
	spec := JobSpec{Uni: quickUniSpec()}
	asked := make(chan struct{})
	drained := make(chan struct{})
	var once sync.Once
	stub := &stubCoordinator{lease: func(w http.ResponseWriter, req leaseRequest) {
		once.Do(func() { close(asked) })
		<-drained // answer only once the worker is draining
		writeJSON(w, http.StatusOK, leaseResponse{Leases: []Lease{stubLease(spec, 41)}})
	}}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	var executed atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "leaving", Logf: t.Logf,
			OnCell: func(int, string, int, int) { executed.Add(1) }}).Run(ctx)
	}()
	<-asked
	cancel()
	close(drained)
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never drained")
	}
	if ids := stub.releasedIDs(); len(ids) != 1 || ids[0] != 41 {
		t.Errorf("released leases %v, want [41]", ids)
	}
	if n := executed.Load(); n != 0 {
		t.Errorf("draining worker started %d cell(s) from the late grant", n)
	}
}

// expiryLog collects coordinator log lines and reports lease expiries.
type expiryLog struct {
	t  *testing.T
	mu sync.Mutex
	n  int
}

func (l *expiryLog) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if strings.Contains(line, "expired") {
		l.mu.Lock()
		l.n++
		l.mu.Unlock()
	}
	l.t.Log(line)
}

func (l *expiryLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// The race the 20 ms slot poll used to hide: a worker that lives for one
// job fires its next lease request the instant its last report returns,
// and the client that sees the result cancels it with that request in
// flight. Abandoned, the request could be granted the NEXT job's first
// cell — to a dead worker, stalling that job for the whole 10 s TTL.
func TestWorkerPerJobNeverStrandsALease(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	log := &expiryLog{t: t}
	coord := newTestCoordinator(t, Config{Logf: log.logf}) // default 10 s TTL
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	spec := JobSpec{Uni: tinyUniSpec()}

	for i := 0; i < 40; i++ {
		start := time.Now()
		id, _, err := client.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, stop := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- NewWorker(WorkerConfig{Coordinator: srv.URL, Name: fmt.Sprintf("job-%d", id),
				PollInterval: 5 * time.Millisecond}).Run(ctx)
		}()
		wctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_, err = client.WaitResult(wctx, id, 5*time.Millisecond)
		cancel()
		stop()
		<-done
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("job %d took %v: a lease was stranded on a cancelled worker", id, took)
		}
	}
	if n := log.count(); n != 0 {
		t.Errorf("coordinator logged %d lease expiries over 40 clean worker-per-job runs", n)
	}
}

// A drain mid-cell hands the lease back: with a one-minute TTL the job
// can only finish promptly if the cell redispatches at once, and the
// release must not cost an attempt.
func TestDrainMidCellReleasesLease(t *testing.T) {
	log := &expiryLog{t: t}
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, Logf: log.logf})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	spec := JobSpec{Uni: quickUniSpec()}
	wantText, wantJSON := reference(t, spec)

	// The second worker is known to the coordinator throughout: its lease
	// before the submit comes back empty. It starts leasing cells once the
	// first has drained.
	var empty leaseResponse
	if err := client.call(context.Background(), http.MethodPost, "/api/lease", leaseRequest{Worker: "steady", Max: 1}, &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Leases) != 0 {
		t.Fatalf("a lease before any submit granted %d cells", len(empty.Leases))
	}
	id, _, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// The drained worker's first cell blocks in its OnCell hook until the
	// drain has begun, so the cancellation lands mid-cell every time.
	ctx, drain := context.WithCancel(context.Background())
	defer drain()
	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "drained", Logf: t.Logf,
			OnCell: func(int, string, int, int) {
				once.Do(func() { close(started) })
				<-ctx.Done()
			}}).Run(ctx)
	}()
	<-started
	drain()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker never returned")
	}

	var mu sync.Mutex
	attempts := map[int]int{} // cell index → highest attempt the steady worker saw
	start := time.Now()
	startWorker(t, srv.URL, WorkerConfig{Name: "steady", PollInterval: 20 * time.Millisecond,
		OnCell: func(_ int, _ string, index, attempt int) {
			mu.Lock()
			attempts[index] = max(attempts[index], attempt)
			mu.Unlock()
		}})
	res := waitResult(t, srv.URL, id)
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("job took %v after the drain: the lease was waited out, not released", took)
	}
	assertIdentical(t, res, wantText, wantJSON)
	mu.Lock()
	for index, attempt := range attempts {
		if attempt != 1 {
			t.Errorf("cell %d re-granted as attempt %d, want 1 (a release must not consume the attempt)", index, attempt)
		}
	}
	mu.Unlock()
	if n := log.count(); n != 0 {
		t.Errorf("coordinator logged %d lease expiries, want none", n)
	}
}

// An expired lease's cell is pending again at once: the same worker's
// next lease request gets it straight back as the next attempt, with no
// backoff between and no quarantine of the worker, until the attempt
// bound records the cell as failed and the job completes degraded.
func TestExpiredLeaseRegrantsAtOnce(t *testing.T) {
	const ttl = 200 * time.Millisecond
	coord := newTestCoordinator(t, Config{LeaseTTL: ttl}) // the default three attempts
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()
	id, cells, err := client.Submit(ctx, JobSpec{Uni: tinyUniSpec()})
	if err != nil {
		t.Fatal(err)
	}
	lease := func() []Lease {
		var resp leaseResponse
		if err := client.call(ctx, http.MethodPost, "/api/lease", leaseRequest{Worker: "flaky", Max: 1}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Leases
	}
	got := lease()
	if len(got) != 1 {
		t.Fatalf("first lease granted %d cells, want 1", len(got))
	}
	held := got[0]
	for attempt := 2; attempt <= 3; attempt++ {
		time.Sleep(ttl + ttl/2) // the next request's sweep expires the lease
		got := lease()
		if len(got) != 1 {
			t.Fatalf("lease after expiry %d granted %d cells, want the expired one back at once", attempt-1, len(got))
		}
		l := got[0]
		if l.Grid != held.Grid || l.Index != held.Index || l.Attempt != attempt || l.LeaseID == held.LeaseID {
			t.Fatalf("lease after expiry %d = %s/%d attempt %d (lease %d), want %s/%d attempt %d under a new lease",
				attempt-1, l.Grid, l.Index, l.Attempt, l.LeaseID, held.Grid, held.Index, attempt)
		}
		held = l
	}
	time.Sleep(ttl + ttl/2)
	// The third expiry exhausts the attempts: the status request's sweep
	// records the cell as failed.
	if st, err := client.Status(ctx, id); err != nil || st.Done != 1 || st.Failed != 1 {
		t.Fatalf("status after the third expiry = %+v, %v; want 1 done, 1 failed", st, err)
	}
	startWorker(t, srv.URL, WorkerConfig{Name: "steady", PollInterval: 20 * time.Millisecond})
	if res := waitResult(t, srv.URL, id); res.Failures != 1 {
		t.Errorf("result has %d failed cells, want 1", res.Failures)
	}
	if st, err := client.Status(ctx, id); err != nil || !st.Complete || st.Done != cells || st.Failed != 1 {
		t.Errorf("final status = %+v, %v; want complete, %d done, 1 failed", st, err, cells)
	}
}

// WaitResult long-polls: with an hour between polls it still returns as
// soon as the last cell completes (at the parent commit this hangs).
func TestWaitResultLongPoll(t *testing.T) {
	coord := newTestCoordinator(t, Config{})
	srv, held := serveNotingResult(coord)
	defer srv.Close()
	client := &Client{Base: srv.URL}
	id, _, err := client.Submit(context.Background(), JobSpec{Uni: tinyUniSpec()})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res JobResult
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := client.WaitResult(context.Background(), id, time.Hour)
		got <- outcome{res, err}
	}()
	<-held // the first /result is parked before any cell has run
	startWorker(t, srv.URL, WorkerConfig{Name: "steady", PollInterval: 20 * time.Millisecond})
	select {
	case o := <-got:
		if o.err != nil || o.res.Text == "" || o.res.Failures != 0 {
			t.Fatalf("WaitResult = %d bytes of text, %d failures, %v", len(o.res.Text), o.res.Failures, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitResult(poll = 1h) did not return once the job completed")
	}
}

// serveNotingResult serves the coordinator and returns a channel closed
// when the first /result request reaches it.
func serveNotingResult(c *Coordinator) (*httptest.Server, <-chan struct{}) {
	held := make(chan struct{})
	var once sync.Once
	inner := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			once.Do(func() { close(held) })
		}
		inner.ServeHTTP(w, r)
	}))
	return srv, held
}

// Against a coordinator that ignores ?wait= and answers 202 at once,
// poll still spaces the requests: no hot loop.
func TestWaitResultSpacesPollsWhenWaitIsIgnored(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		writeJSON(w, http.StatusAccepted, JobStatus{ID: 1})
	}))
	defer srv.Close()
	const poll = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*poll)
	defer cancel()
	start := time.Now()
	_, err := (&Client{Base: srv.URL}).WaitResult(ctx, 1, poll)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitResult returned %v, want the context deadline", err)
	}
	if limit := int64((elapsed+poll-1)/poll) + 1; requests.Load() > limit {
		t.Errorf("%d requests in %v at poll %v, want at most %d", requests.Load(), elapsed, poll, limit)
	}
}

// A 500 from /result carries the job's assembly error and is terminal,
// long-poll or not.
func TestWaitResultServerErrorIsTerminal(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		httpError(w, http.StatusInternalServerError, "assembly failed")
	}))
	defer srv.Close()
	_, err := (&Client{Base: srv.URL}).WaitResult(context.Background(), 1, time.Millisecond)
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("WaitResult returned %v, want the 500", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("a terminal 500 was asked for %d times, want once", n)
	}
}

// Cancelling the caller unwinds both ends: WaitResult returns ctx.Err()
// and the coordinator's held handler returns with the hung-up request,
// so a graceful shutdown is not kept waiting.
func TestWaitResultCancelReleasesHandler(t *testing.T) {
	coord := newTestCoordinator(t, Config{})
	srv, held := serveNotingResult(coord)
	defer srv.Close()
	client := &Client{Base: srv.URL}
	id, _, err := client.Submit(context.Background(), JobSpec{Uni: quickUniSpec()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := client.WaitResult(ctx, id, time.Hour)
		got <- err
	}()
	<-held
	cancel()
	select {
	case err := <-got:
		if err != context.Canceled {
			t.Errorf("WaitResult returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitResult did not return after cancel")
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), time.Second)
	defer shCancel()
	if err := srv.Config.Shutdown(shCtx); err != nil {
		t.Errorf("Shutdown with a held /result handler: %v", err)
	}
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/seeded"
)

// tinyUniSpec is quickUniSpec with short slices: five cells of a few
// milliseconds, for tests that run many jobs.
func tinyUniSpec() *experiments.UniConfig {
	cfg := quickUniSpec()
	cfg.SliceCycles = 2_000
	return cfg
}

// stubCoordinator is a scripted coordinator for worker tests: it answers
// register and heartbeat, and leaves lease, complete and release to the
// test.
type stubCoordinator struct {
	lease    func(w http.ResponseWriter, req leaseRequest)
	complete func(req completeRequest)

	mu       sync.Mutex
	released []int64
}

func (s *stubCoordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/register", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
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
				writeJSON(w, http.StatusOK, leaseResponse{RetryMillis: 50})
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

// An injected death means kill -9: the worker hands nothing back and its
// lease is left to expire.
func TestInjectedDeathReleasesNothing(t *testing.T) {
	spec := JobSpec{Uni: quickUniSpec()}
	var granted atomic.Bool
	stub := &stubCoordinator{lease: func(w http.ResponseWriter, req leaseRequest) {
		if granted.Swap(true) {
			writeJSON(w, http.StatusOK, leaseResponse{RetryMillis: 50})
			return
		}
		writeJSON(w, http.StatusOK, leaseResponse{Leases: []Lease{stubLease(spec, 7)}})
	}}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()
	done := startWorker(t, srv.URL, WorkerConfig{Name: "doomed", PollInterval: 20 * time.Millisecond,
		Plan: seeded.Plan[guard.FaultKind]{{Kind: guard.FaultDieMidCell, At: 1}}})
	select {
	case err := <-done:
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("Run returned %v, want an injected fault", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("doomed worker never died")
	}
	if ids := stub.releasedIDs(); len(ids) != 0 {
		t.Errorf("dead worker released leases %v, want none", ids)
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
// release must cost neither an attempt nor a breaker strike.
func TestDrainMidCellReleasesLease(t *testing.T) {
	log := &expiryLog{t: t}
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, Logf: log.logf})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	spec := JobSpec{Uni: quickUniSpec()}
	wantText, wantJSON := reference(t, spec)

	// The second worker is known to the coordinator throughout; it starts
	// leasing once the first has drained.
	if err := client.call(context.Background(), http.MethodPost, "/api/register", registerRequest{Worker: "steady"}, nil); err != nil {
		t.Fatal(err)
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
	coord.mu.Lock()
	expiries := coord.workers["drained"].consecExpiries
	coord.mu.Unlock()
	if expiries != 0 {
		t.Errorf("drained worker's breaker count is %d, want 0", expiries)
	}
	if n := log.count(); n != 0 {
		t.Errorf("coordinator logged %d lease expiries, want none", n)
	}
}

// The empty-grant hint follows the nearest redispatch backoff when that
// ends before the quarter-TTL default, so a cell backed off by
// guard.Retry is picked up when the policy says, not up to 2 s later.
func TestLeaseRetryHint(t *testing.T) {
	retry := guard.Retry{Attempts: 5, Base: 50 * time.Millisecond, Cap: 2 * time.Second, Seed: 1}
	for _, tc := range []struct {
		name    string
		ttl     time.Duration
		prepare func(now time.Time, cells []*cell)
		lo, hi  int64 // bounds on RetryMillis
	}{
		{"nothing pending", 10 * time.Second, func(time.Time, []*cell) {}, 2000, 2000},
		{"expiry backoff", 10 * time.Second, func(now time.Time, cells []*cell) {
			cells[2].expiry = now.Add(-time.Millisecond) // swept by the next request
		}, 50, 76}, // Retry.Delay(attempt 2) is Base plus up to half of it
		{"nearest of two", 10 * time.Second, func(now time.Time, cells []*cell) {
			cells[1].state, cells[1].eligibleAt = cellPending, now.Add(900*time.Millisecond)
			cells[3].state, cells[3].eligibleAt = cellPending, now.Add(300*time.Millisecond)
		}, 200, 300},
		{"backoff beyond the default", 2 * time.Second, func(now time.Time, cells []*cell) {
			cells[0].state, cells[0].eligibleAt = cellPending, now.Add(10*time.Second)
		}, 500, 500},
		{"clamp floor", 20 * time.Millisecond, func(time.Time, []*cell) {}, 10, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCoordinator(t, Config{LeaseTTL: tc.ttl, Retry: retry})
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()
			client := &Client{Base: srv.URL}
			id, n, err := client.Submit(context.Background(), JobSpec{Uni: quickUniSpec()})
			if err != nil {
				t.Fatal(err)
			}
			var all leaseResponse
			if err := client.call(context.Background(), http.MethodPost, "/api/lease", leaseRequest{Worker: "holder", Max: n}, &all); err != nil || len(all.Leases) != n {
				t.Fatalf("leasing the whole grid: %d leases, %v", len(all.Leases), err)
			}
			c.mu.Lock()
			tc.prepare(time.Now(), c.jobs[id].cells)
			c.mu.Unlock()

			var resp leaseResponse
			if err := client.call(context.Background(), http.MethodPost, "/api/lease", leaseRequest{Worker: "asker", Max: 1}, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Leases) != 0 {
				t.Fatalf("got %d leases, want an empty grant", len(resp.Leases))
			}
			if resp.RetryMillis < tc.lo || resp.RetryMillis > tc.hi {
				t.Errorf("RetryMillis = %d, want within [%d, %d]", resp.RetryMillis, tc.lo, tc.hi)
			}
		})
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

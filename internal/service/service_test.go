package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/seeded"
)

// quickUniSpec is the small workstation grid the integration tests run:
// one workload, 5 cells. Parallelism enters the result's Cfg JSON, so
// the reference run below uses the same value.
func quickUniSpec() *experiments.UniConfig {
	cfg := experiments.QuickUniConfig()
	cfg.Workloads = []string{"DC"}
	cfg.Parallelism = 2
	return &cfg
}

func quickMPSpec() *experiments.MPConfig {
	cfg := experiments.QuickMPConfig()
	cfg.Apps = []string{"ocean"}
	cfg.Parallelism = 2
	return &cfg
}

// reference computes what a single-process cmd/experiments run of the
// spec prints: the section text via the shared renderers and the -json
// bytes via the same MarshalIndent call. Byte-identity of the
// distributed result against these is the crash harness's bar.
func reference(t *testing.T, spec JobSpec) (text string, jsonBytes []byte) {
	t.Helper()
	sel := experiments.Selection(spec.Only)
	blob := map[string]any{}
	var b strings.Builder
	if spec.Uni != nil {
		uni, err := experiments.RunUniprocessorCtx(context.Background(), *spec.Uni)
		if err != nil {
			t.Fatalf("reference uni run: %v", err)
		}
		b.WriteString(experiments.RenderUniSections(sel, uni))
		blob["workstation"] = uni
	}
	if spec.MP != nil {
		mpr, err := experiments.RunMultiprocessorCtx(context.Background(), *spec.MP)
		if err != nil {
			t.Fatalf("reference mp run: %v", err)
		}
		b.WriteString(experiments.RenderMPSections(sel, mpr))
		blob["multiprocessor"] = mpr
	}
	data, err := json.MarshalIndent(blob, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), data
}

// execCounter counts cell executions per (job, grid, index) across every
// worker in a test — the "no cell simulated more than (retries+1) times"
// assertion reads it, and the restart test snapshots it.
type execCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func newExecCounter() *execCounter { return &execCounter{counts: map[string]int{}} }

func (e *execCounter) hook(job int, grid string, index, attempt int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.counts[fmt.Sprintf("%d/%s/%d", job, grid, index)]++
}

func (e *execCounter) snapshot() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int, len(e.counts))
	for k, v := range e.counts {
		out[k] = v
	}
	return out
}

func (e *execCounter) assertMax(t *testing.T, max int) {
	t.Helper()
	for k, n := range e.snapshot() {
		if n > max {
			t.Errorf("cell %s executed %d times, want <= %d", k, n, max)
		}
	}
}

func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// startWorker runs a worker until the test ends (or it dies); the
// returned channel carries Run's error. The test does not finish before
// the worker has: a drain may still log through t.Logf.
func startWorker(t *testing.T, base string, cfg WorkerConfig) <-chan error {
	t.Helper()
	cfg.Coordinator = base
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		done <- NewWorker(cfg).Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-exited
	})
	return done
}

func waitResult(t *testing.T, base string, job int) JobResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := (&Client{Base: base}).WaitResult(ctx, job, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for job %d: %v", job, err)
	}
	return res
}

func assertIdentical(t *testing.T, res JobResult, wantText string, wantJSON []byte) {
	t.Helper()
	if res.Text != wantText {
		t.Errorf("distributed text differs from single-process run:\n--- got ---\n%s\n--- want ---\n%s", res.Text, wantText)
	}
	if string(res.JSON) != string(wantJSON) {
		t.Errorf("distributed JSON differs from single-process run (got %d bytes, want %d)", len(res.JSON), len(wantJSON))
	}
	if res.Failures != 0 {
		t.Errorf("job finished with %d failed cells", res.Failures)
	}
}

// The service's core contract: a job fanned out to workers produces
// byte-identical text and JSON to a single-process run, and the cell
// stream reports every completion.
func TestServiceMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := JobSpec{Only: []string{"table7", "fig7", "table10", "fig8"}, Uni: quickUniSpec(), MP: quickMPSpec()}
	wantText, wantJSON := reference(t, spec)

	coord := newTestCoordinator(t, Config{})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	counter := newExecCounter()
	startWorker(t, srv.URL, WorkerConfig{Name: "steady", Slots: 2, PollInterval: 20 * time.Millisecond, OnCell: counter.hook})

	client := &Client{Base: srv.URL}
	id, cells, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if wantCells := 10; cells != wantCells {
		t.Fatalf("job has %d cells, want %d", cells, wantCells)
	}

	// Follow the completion stream concurrently with the run.
	streamed := make(chan int, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/api/jobs/%d/cells?since=0", srv.URL, id))
		if err != nil {
			streamed <- -1
			return
		}
		defer resp.Body.Close()
		n := 0
		dec := json.NewDecoder(resp.Body)
		for {
			var ev CellEvent
			if err := dec.Decode(&ev); err != nil {
				break
			}
			n++
		}
		streamed <- n
	}()

	res := waitResult(t, srv.URL, id)
	assertIdentical(t, res, wantText, wantJSON)
	counter.assertMax(t, 1) // healthy run: every cell simulates exactly once
	select {
	case n := <-streamed:
		if n != cells {
			t.Errorf("completion stream delivered %d events, want %d", n, cells)
		}
	case <-time.After(10 * time.Second):
		t.Error("completion stream never finished")
	}
}

// chaosConfig is the tight-lease coordinator the crash tests share:
// leases expire fast so redispatch happens within the test's patience.
func chaosConfig() Config {
	return Config{
		LeaseTTL: 300 * time.Millisecond,
		Retry:    guard.Retry{Attempts: 3, Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond, Seed: 1},
	}
}

// A worker that dies mid-cell (kill -9 semantics: no completion, no
// further heartbeats) must not perturb the output: its lease expires,
// the cell redispatches, and byte-identity holds.
func TestWorkerDiesMidCell(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := JobSpec{Only: []string{"table7"}, Uni: quickUniSpec()}
	wantText, wantJSON := reference(t, spec)

	coord := newTestCoordinator(t, chaosConfig())
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	counter := newExecCounter()
	// The fault fires on the doomed worker's FIRST execution: a later
	// ordinal could race the steady worker finishing the whole grid.
	doomed := startWorker(t, srv.URL, WorkerConfig{Name: "doomed", PollInterval: 20 * time.Millisecond,
		Plan: seeded.Plan[guard.FaultKind]{{Kind: guard.FaultDieMidCell, At: 1}}, OnCell: counter.hook})

	id, _, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The doomed worker is alone until it has died, so the first cell is
	// its: started beside it, the steady worker can finish the whole grid
	// between two of the doomed worker's polls and the fault never fires.
	select {
	case err := <-doomed:
		if !strings.Contains(err.Error(), "die-mid-cell") {
			t.Errorf("doomed worker exited with %v, want injected die-mid-cell fault", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("doomed worker never died")
	}
	startWorker(t, srv.URL, WorkerConfig{Name: "steady", Slots: 2, PollInterval: 20 * time.Millisecond, OnCell: counter.hook})
	res := waitResult(t, srv.URL, id)
	assertIdentical(t, res, wantText, wantJSON)
	counter.assertMax(t, 3) // never more than the lease-attempt budget
}

// A worker that computes a result but dies before reporting it loses the
// compute; determinism makes the redispatched re-run indistinguishable.
func TestWorkerDiesBeforeAck(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := JobSpec{Only: []string{"table7"}, Uni: quickUniSpec()}
	wantText, wantJSON := reference(t, spec)

	coord := newTestCoordinator(t, chaosConfig())
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	counter := newExecCounter()
	doomed := startWorker(t, srv.URL, WorkerConfig{Name: "doomed", PollInterval: 20 * time.Millisecond,
		Plan: seeded.Plan[guard.FaultKind]{{Kind: guard.FaultDieBeforeAck, At: 1}}, OnCell: counter.hook})

	id, _, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The doomed worker is alone until it has died, so the first cell is
	// its: started beside it, the steady worker can finish the whole grid
	// between two of the doomed worker's polls and the fault never fires.
	select {
	case err := <-doomed:
		if !strings.Contains(err.Error(), "die-before-ack") {
			t.Errorf("doomed worker exited with %v, want injected die-before-ack fault", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("doomed worker never died")
	}
	startWorker(t, srv.URL, WorkerConfig{Name: "steady", Slots: 2, PollInterval: 20 * time.Millisecond, OnCell: counter.hook})
	res := waitResult(t, srv.URL, id)
	assertIdentical(t, res, wantText, wantJSON)
	counter.assertMax(t, 3) // never more than the lease-attempt budget
}

// A heartbeat stall expires the worker's lease mid-flight; the cell
// redispatches while the stalled worker still holds its (eventually
// late-reported) result. Whichever report lands second is deduplicated
// by payload hash, and the output must not show any of it.
func TestHeartbeatStallDeduplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := JobSpec{Only: []string{"table7"}, Uni: quickUniSpec()}
	wantText, wantJSON := reference(t, spec)

	coord := newTestCoordinator(t, chaosConfig())
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	counter := newExecCounter()
	startWorker(t, srv.URL, WorkerConfig{Name: "staller", PollInterval: 20 * time.Millisecond,
		Plan: seeded.Plan[guard.FaultKind]{{Kind: guard.FaultHeartbeatStall, At: 1}}, OnCell: counter.hook})
	startWorker(t, srv.URL, WorkerConfig{Name: "steady", Slots: 2, PollInterval: 20 * time.Millisecond, OnCell: counter.hook})

	id, _, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, srv.URL, id)
	assertIdentical(t, res, wantText, wantJSON)
	counter.assertMax(t, 3)
	// The duplicate is timing-dependent (the steady worker must finish
	// the redispatched cell before the stall window closes for the late
	// report to be the duplicate, or after for the redispatch to be);
	// either way the output held. Log what happened for the record.
	st, err := (&Client{Base: srv.URL}).Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("heartbeat stall absorbed: %d duplicate, %d mismatched reports", st.Dupes, st.Mismatches)
	if st.Mismatches != 0 {
		t.Errorf("%d mismatched reports — workers disagreed on a cell result, determinism broke", st.Mismatches)
	}
}

// Deterministic dedup check, no workers: the same cell reported twice is
// a duplicate (first record kept), a divergent report is flagged as a
// mismatch and does not overwrite the journaled record.
func TestDuplicateAndMismatchedReports(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := JobSpec{Only: []string{"table7"}, Uni: quickUniSpec()}
	coord := newTestCoordinator(t, Config{})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	id, _, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var leases leaseResponse
	if err := client.call(ctx, http.MethodPost, "/api/lease", leaseRequest{Worker: "w1", Max: 1}, &leases); err != nil {
		t.Fatal(err)
	}
	if len(leases.Leases) != 1 {
		t.Fatalf("got %d leases, want 1", len(leases.Leases))
	}
	l := leases.Leases[0]
	rec, err := experiments.RunUniCell(ctx, *spec.Uni, l.Index)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(rec)

	complete := func(record []byte) string {
		var resp completeResponse
		err := client.call(ctx, http.MethodPost, "/api/complete", completeRequest{
			Worker: "w1", Job: l.Job, Grid: l.Grid, Index: l.Index, LeaseID: l.LeaseID, Record: record}, &resp)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Status
	}
	if s := complete(payload); s != "accepted" {
		t.Errorf("first report: %s, want accepted", s)
	}
	if s := complete(payload); s != "duplicate" {
		t.Errorf("repeated identical report: %s, want duplicate", s)
	}
	bogus, _ := json.Marshal(&experiments.UniCellRecord{CellOutcome: experiments.CellOutcome{Failed: true, Failure: "forged divergent record"}})
	if s := complete(bogus); s != "mismatch" {
		t.Errorf("divergent report: %s, want mismatch", s)
	}

	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dupes != 1 || st.Mismatches != 1 {
		t.Errorf("status records %d dupes, %d mismatches; want 1 and 1", st.Dupes, st.Mismatches)
	}
	// The journal kept the first record: the cell must not have become a
	// failure.
	if st.Failed != 0 {
		t.Errorf("mismatched report overwrote the journaled record (%d failed cells)", st.Failed)
	}
}

// Kill the coordinator mid-job and restart it on the same state
// directory: every journaled cell replays with zero re-simulation, the
// remainder finishes, and the output is byte-identical.
func TestCoordinatorRestartMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := JobSpec{Only: []string{"table7"}, Uni: quickUniSpec()}
	wantText, wantJSON := reference(t, spec)
	dir := t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	cfg := chaosConfig()
	cfg.Dir = dir
	cfg.Logf = t.Logf
	coord1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := &http.Server{Handler: coord1.Handler()}
	go srv1.Serve(ln)

	counter := newExecCounter()
	startWorker(t, base, WorkerConfig{Name: "steady", PollInterval: 20 * time.Millisecond, OnCell: counter.hook})

	client := &Client{Base: base}
	ctx := context.Background()
	id, cells, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let part of the grid complete, then kill the coordinator abruptly
	// (no drain: connections die mid-flight, like kill -9 modulo the
	// in-process journal fds, which Close flushes).
	deadline := time.Now().Add(time.Minute)
	var preKill JobStatus
	for {
		preKill, err = client.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if preKill.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached 2 done cells (at %d)", preKill.Done)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv1.Close()
	coord1.Close()
	preKillCounts := counter.snapshot()

	// Restart on the same directory and address. The worker was never
	// told; it just retries until the new process answers.
	coord2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(coord2.Close)
	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &http.Server{Handler: coord2.Handler()}
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })

	// Zero re-simulation: the restarted coordinator's very first status
	// already shows at least the journaled cells done.
	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done < preKill.Done {
		t.Errorf("restart lost cells: %d done after, %d before", st.Done, preKill.Done)
	}

	res := waitResult(t, base, id)
	assertIdentical(t, res, wantText, wantJSON)
	if res.Dupes+res.Mismatches > 1 {
		// At most the one in-flight cell at kill time can double-report.
		t.Errorf("restart produced %d duplicate + %d mismatched reports", res.Dupes, res.Mismatches)
	}

	// Cells journaled before the kill must never have executed again: the
	// journal replayed them.
	finalCounts := counter.snapshot()
	for key, n := range preKillCounts {
		if finalCounts[key] > n+0 && n >= 1 && finalCounts[key] != n {
			// Only flag cells that were DONE pre-kill; in-flight cells may
			// legitimately re-run. Done pre-kill cells executed exactly once
			// with a healthy worker, so any increase means a re-simulation.
			if n == 1 && preKill.Done >= cells {
				t.Errorf("cell %s re-simulated after restart (%d -> %d executions)", key, n, finalCounts[key])
			}
		}
	}
	counter.assertMax(t, 3)
	if total := len(finalCounts); total > cells+1 {
		t.Errorf("%d distinct cell executions for %d cells — restart redispatched completed work", total, cells)
	}
}

// The bounded queue: submits beyond MaxJobs get 429 + Retry-After, and
// the client helper classifies that as retryable backpressure.
func TestSubmitBackpressure(t *testing.T) {
	spec := JobSpec{Only: []string{"table7"}, Uni: quickUniSpec()}
	coord := newTestCoordinator(t, Config{MaxJobs: 1})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	if _, _, err := client.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	_, _, err := client.Submit(ctx, spec)
	if err == nil {
		t.Fatal("second submit beyond MaxJobs succeeded, want 429")
	}
	ae, ok := err.(*apiError)
	if !ok || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("got %v, want a 429 apiError", err)
	}
	if ae.RetryAfter <= 0 {
		t.Error("429 carried no Retry-After")
	}
	if wait, retry := RetryAfter(err); !retry || wait <= 0 {
		t.Errorf("RetryAfter(429) = (%v, %v), want positive retryable backoff", wait, retry)
	}
}

// Submit validation: non-grid sections and selections whose grid config
// is missing are terminal 400s, not queued jobs.
func TestSubmitValidation(t *testing.T) {
	coord := newTestCoordinator(t, Config{})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	for _, spec := range []JobSpec{
		{Only: []string{"table4"}, Uni: quickUniSpec()},  // not a grid section
		{Only: []string{"table10"}, Uni: quickUniSpec()}, // needs mp config
		{}, // no grids at all
	} {
		_, _, err := client.Submit(ctx, spec)
		ae, ok := err.(*apiError)
		if !ok || ae.Status != http.StatusBadRequest {
			t.Errorf("spec %+v: got %v, want 400", spec, err)
		}
		if err != nil {
			if _, retry := RetryAfter(err); retry {
				t.Errorf("spec %+v: 400 classified as retryable", spec)
			}
		}
	}
}

// The circuit breaker: a worker whose leases keep expiring is
// quarantined and starved of new leases until the cooldown passes.
func TestCircuitBreakerQuarantinesWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	coord := newTestCoordinator(t, Config{
		LeaseTTL:         40 * time.Millisecond,
		Retry:            guard.Retry{Attempts: 20, Base: 0, Seed: 1},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // quarantine must outlast the test
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	spec := JobSpec{Only: []string{"table7"}, Uni: quickUniSpec()}
	if _, _, err := client.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}

	// "flaky" leases cells and never completes them; after
	// BreakerThreshold consecutive expiries it must stop being fed.
	lease := func(worker string) leaseResponse {
		var resp leaseResponse
		if err := client.call(ctx, http.MethodPost, "/api/lease", leaseRequest{Worker: worker, Max: 1}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 2; i++ {
		if got := lease("flaky"); len(got.Leases) != 1 {
			t.Fatalf("expiry round %d: flaky got %d leases, want 1", i, len(got.Leases))
		}
		time.Sleep(60 * time.Millisecond) // let the lease expire; next request sweeps it
	}
	got := lease("flaky")
	if len(got.Leases) != 0 {
		t.Fatalf("quarantined worker still got %d leases", len(got.Leases))
	}
	if got.RetryMillis <= 0 {
		t.Error("quarantined lease response carries no retry hint")
	}
	// A different worker is unaffected.
	if got := lease("steady"); len(got.Leases) != 1 {
		t.Errorf("healthy worker got %d leases while flaky is quarantined, want 1", len(got.Leases))
	}
}

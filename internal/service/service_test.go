package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/guard"
	"repro/internal/seeded"
)

// quickUniSpec is the small workstation grid the integration tests run:
// one workload, 5 cells.
func quickUniSpec() *experiments.UniConfig {
	cfg := experiments.QuickUniConfig()
	cfg.Workloads = []string{"DC"}
	return &cfg
}

func quickMPSpec() *experiments.MPConfig {
	cfg := experiments.QuickMPConfig()
	cfg.Apps = []string{"ocean"}
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
		uni, err := experiments.RunUniprocessor(*spec.Uni)
		if err != nil {
			t.Fatalf("reference uni run: %v", err)
		}
		b.WriteString(experiments.RenderUniSections(sel, uni))
		blob["workstation"] = uni
	}
	if spec.MP != nil {
		mpr, err := experiments.RunMultiprocessor(*spec.MP)
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
// byte-identical text and JSON to a single-process run, and the job's
// status counts every completion.
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

	res := waitResult(t, srv.URL, id)
	assertIdentical(t, res, wantText, wantJSON)
	counter.assertMax(t, 1) // healthy run: every cell simulates exactly once
	st, err := client.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != cells || st.Failed != 0 || !st.Complete {
		t.Errorf("status after result: done %d, failed %d, complete %v; want %d, 0, true", st.Done, st.Failed, st.Complete, cells)
	}
}

// chaosConfig is the tight-lease coordinator the crash tests share:
// leases expire fast so redispatch happens within the test's patience.
func chaosConfig() Config {
	return Config{
		LeaseTTL: 300 * time.Millisecond,
		Retry:    guard.Retry{Attempts: 3},
	}
}

// A worker that dies holding a lease is, to the coordinator, a lease
// nobody renews or completes. It expires, the cell redispatches, and
// byte-identity holds. The dead worker here is a lease taken through the
// API and abandoned; renew says whether it heartbeat once before dying.
func assertAbandonedLeaseRedispatches(t *testing.T, renew bool) {
	t.Helper()
	spec := JobSpec{Only: []string{"table7"}, Uni: quickUniSpec()}
	wantText, wantJSON := reference(t, spec)

	coord := newTestCoordinator(t, chaosConfig())
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	id, cells, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	dead := leaseOne(t, srv.URL, "dead")
	if renew {
		if hb := heartbeat(t, srv.URL, heartbeatRequest{Worker: "dead", LeaseIDs: []int64{dead.LeaseID}}); hb.Renewed != 1 {
			t.Fatalf("renewal before the death = %+v, want 1 renewed", hb)
		}
	}

	counter := newExecCounter()
	startWorker(t, srv.URL, WorkerConfig{Name: "steady", Slots: 2, PollInterval: 20 * time.Millisecond, OnCell: counter.hook})
	assertIdentical(t, waitResult(t, srv.URL, id), wantText, wantJSON)
	// The survivor runs every cell exactly once, the abandoned one included.
	if runs := len(counter.snapshot()); runs != cells {
		t.Errorf("the survivor ran %d distinct cells, want all %d", runs, cells)
	}
	counter.assertMax(t, 1)
}

// A worker that dies mid-cell never renews its lease.
func TestWorkerDiesMidCell(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertAbandonedLeaseRedispatches(t, false)
}

// A worker that dies with the result computed but never reported had
// renewed its lease while it ran: the renewed lease expires just the same.
func TestWorkerDiesBeforeAck(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertAbandonedLeaseRedispatches(t, true)
}

// A report that arrives after its lease expired, for a cell another
// worker has since completed, is deduplicated by payload hash: the job
// counts one duplicate, no mismatch, and the output does not show it.
func TestLateReportAfterExpiryDeduplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := JobSpec{Only: []string{"table7"}, Uni: quickUniSpec()}
	wantText, wantJSON := reference(t, spec)

	coord := newTestCoordinator(t, chaosConfig())
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	id, _, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	stalled := leaseOne(t, srv.URL, "stalled")

	startWorker(t, srv.URL, WorkerConfig{Name: "steady", Slots: 2, PollInterval: 20 * time.Millisecond})
	assertIdentical(t, waitResult(t, srv.URL, id), wantText, wantJSON)

	if status := completeCell(t, srv.URL, spec, stalled, "stalled"); status != "duplicate" {
		t.Fatalf("late report = %q, want duplicate", status)
	}
	assertIdentical(t, waitResult(t, srv.URL, id), wantText, wantJSON)
	st, err := client.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dupes != 1 || st.Mismatches != 0 {
		t.Errorf("status after the late report: %d duplicate, %d mismatched reports; want 1, 0", st.Dupes, st.Mismatches)
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

// A journal whose header never landed — an empty file, or a header cut
// short before its newline — belongs to a submit that was never answered
// 201, so it is no job: a restart removes the file and shows no job. A
// complete first line that is no header still stops the coordinator.
func TestRecoverJournalWithoutHeader(t *testing.T) {
	spec := JobSpec{Uni: tinyUniSpec()}
	for _, c := range []struct {
		name    string
		journal func(header string) string
		starts  bool
	}{
		{"empty", func(string) string { return "" }, true},
		{"header without its newline", func(h string) string { return h[:len(h)-1] }, true},
		{"complete invalid header", func(h string) string { return h[:len(h)/2] + "\n" }, false},
		{"invalid header before records", func(h string) string {
			return h[:len(h)/2] + "\n" + `{"type":"cell","grid":"workstation","index":0}` + "\n"
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			coord, err := NewCoordinator(Config{Dir: dir, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(coord.Handler())
			id, _, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec)
			srv.Close()
			coord.Close()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("job-%d.journal", id))
			header, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(c.journal(string(header))), 0o644); err != nil {
				t.Fatal(err)
			}

			restarted, err := NewCoordinator(Config{Dir: dir, Logf: t.Logf})
			if !c.starts {
				if err == nil {
					restarted.Close()
					t.Fatal("coordinator started over a journal whose first line is no header")
				}
				return
			}
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer restarted.Close()
			srv = httptest.NewServer(restarted.Handler())
			defer srv.Close()
			if st, err := (&Client{Base: srv.URL}).Status(context.Background(), id); !isStatus(err, http.StatusNotFound) {
				t.Errorf("restart shows job %d: %+v, %v; want a 404", id, st, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("the header-less journal was not removed: %v", err)
			}
		})
	}
}

// failDirSync is an FS whose directory syncs fail with EIO.
type failDirSync struct{ faultfs.FS }

func (failDirSync) SyncDir(string) error { return syscall.EIO }

// noSideFile fails t if the state directory on disk holds a journal side
// file: one is never a job, and nothing is left to read it.
func noSideFile(t *testing.T, disk faultfs.FS) {
	t.Helper()
	entries, err := disk.ReadDir("/state")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".journal.new") {
			t.Errorf("%s is left in the state directory", e.Name())
		}
	}
}

// A submit whose journal header cannot be made durable is answered 500,
// and no restart finds the job it did not create: neither one over the
// same disk nor one over the disk a crash at that point leaves. A job
// answered 201 is on disk: a crash right after the answer keeps it. A
// submit whose directory sync fails is answered 500 and its file removed;
// its header was durable, so only a crash before that removal lands can
// bring the job back. No restart leaves a journal side file behind.
func TestFailedSubmitLeavesNoJob(t *testing.T) {
	spec := JobSpec{Uni: tinyUniSpec()}
	wantText, wantJSON := reference(t, spec)
	ctx := context.Background()
	serve := func(t *testing.T, fsys faultfs.FS) string {
		coord := newTestCoordinator(t, Config{Dir: "/state", FS: fsys})
		srv := httptest.NewServer(coord.Handler())
		t.Cleanup(srv.Close)
		return srv.URL
	}

	mem := faultfs.NewMem()
	if err := mem.MkdirAll("/state", 0o755); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(mem, seeded.Plan[faultfs.FaultKind]{{Kind: faultfs.FaultFailedSync, At: 1}},
		func(path string) bool { return strings.Contains(path, ".journal") }, nil)
	_, _, err := (&Client{Base: serve(t, inj)}).Submit(ctx, spec)
	if !isStatus(err, http.StatusInternalServerError) {
		t.Fatalf("submit whose journal header sync failed: %v, want a 500", err)
	}
	if n := inj.Fired()[faultfs.FaultFailedSync]; n != 1 {
		t.Fatalf("the header sync fault fired %d times, want once", n)
	}
	noSideFile(t, mem)

	for name, disk := range map[string]*faultfs.Mem{"same disk": mem, "crash image": mem.CrashImage()} {
		t.Run(name, func(t *testing.T) {
			client := &Client{Base: serve(t, disk)}
			if st, err := client.Status(ctx, 1); !isStatus(err, http.StatusNotFound) {
				t.Fatalf("restart shows the failed submit as job 1: %+v, %v; want a 404", st, err)
			}
			noSideFile(t, disk)
			id, cells, err := client.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			recovered := &Client{Base: serve(t, disk.CrashImage())}
			if st, err := recovered.Status(ctx, id); err != nil || st.Cells != cells || st.Done != 0 {
				t.Errorf("job %d after a crash right after its 201: %+v, %v; want %d cells, none done", id, st, err, cells)
			}
			for _, base := range []string{client.Base, recovered.Base} {
				startWorker(t, base, WorkerConfig{Name: "w", PollInterval: 10 * time.Millisecond})
				assertIdentical(t, waitResult(t, base, id), wantText, wantJSON)
			}
		})
	}

	t.Run("directory sync", func(t *testing.T) {
		disk := faultfs.NewMem()
		if err := disk.MkdirAll("/state", 0o755); err != nil {
			t.Fatal(err)
		}
		if _, _, err := (&Client{Base: serve(t, failDirSync{disk})}).Submit(ctx, spec); !isStatus(err, http.StatusInternalServerError) {
			t.Fatalf("submit whose directory sync failed: %v, want a 500", err)
		}
		if _, err := disk.ReadFile("/state/job-1.journal"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("the failed submit's journal was not removed: %v", err)
		}
		if st, err := (&Client{Base: serve(t, disk)}).Status(ctx, 1); !isStatus(err, http.StatusNotFound) {
			t.Errorf("restart shows the failed submit as job 1: %+v, %v; want a 404", st, err)
		}
		noSideFile(t, disk)
	})

	// A crash after the header landed in the side file, before the
	// rename, leaves a whole header under the side name: still no job.
	t.Run("crash before the rename", func(t *testing.T) {
		disk := faultfs.NewMem()
		if err := disk.MkdirAll("/state", 0o755); err != nil {
			t.Fatal(err)
		}
		_, fp, err := spec.resolve()
		if err != nil {
			t.Fatal(err)
		}
		side, err := experiments.CreateJournalFS(disk, "/state/job-1.journal.new", fp)
		if err != nil {
			t.Fatal(err)
		}
		side.Close()
		disk = disk.CrashImage()
		if st, err := (&Client{Base: serve(t, disk)}).Status(ctx, 1); !isStatus(err, http.StatusNotFound) {
			t.Errorf("restart shows the side file as job 1: %+v, %v; want a 404", st, err)
		}
		noSideFile(t, disk)
	})
}

// A journal a restart starts afresh (here one another binary wrote) is
// the only record of a job already answered 201, so it is replaced, never
// truncated in place: a fresh header that fails to sync or tears stops
// that restart, and the next one, over the same disk or over the disk a
// crash at that point leaves, still has the job and runs it to the
// single-process bytes, and leaves no journal side file behind.
func TestStaleJournalRestartKeepsJob(t *testing.T) {
	spec := JobSpec{Uni: tinyUniSpec()}
	wantText, wantJSON := reference(t, spec)
	_, fp, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	fp.Binary = "another-binary"
	ctx := context.Background()
	for _, fault := range []seeded.Event[faultfs.FaultKind]{
		{Kind: faultfs.FaultFailedSync, At: 1},
		{Kind: faultfs.FaultTornWrite, At: 1, Arg: 40},
	} {
		t.Run(fault.Kind.String(), func(t *testing.T) {
			mem := faultfs.NewMem()
			coord, err := NewCoordinator(Config{Dir: "/state", FS: mem, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(coord.Handler())
			id, cells, err := (&Client{Base: srv.URL}).Submit(ctx, spec)
			srv.Close()
			coord.Close()
			if err != nil {
				t.Fatal(err)
			}
			stale, err := experiments.CreateJournalFS(mem, fmt.Sprintf("/state/job-%d.journal", id), fp)
			if err != nil {
				t.Fatal(err)
			}
			stale.Close()

			inj := faultfs.NewInjector(mem, seeded.Plan[faultfs.FaultKind]{fault},
				func(path string) bool { return strings.Contains(path, ".journal") }, nil)
			if c, err := NewCoordinator(Config{Dir: "/state", FS: inj, Logf: t.Logf}); err == nil {
				c.Close()
				t.Fatalf("a restart whose fresh header hit a %v started", fault.Kind)
			}
			if n := inj.Fired()[fault.Kind]; n != 1 {
				t.Fatalf("the %v fired %d times, want once", fault.Kind, n)
			}
			noSideFile(t, mem)

			for name, disk := range map[string]*faultfs.Mem{"same disk": mem, "crash image": mem.CrashImage()} {
				t.Run(name, func(t *testing.T) {
					coord := newTestCoordinator(t, Config{Dir: "/state", FS: disk})
					srv := httptest.NewServer(coord.Handler())
					t.Cleanup(srv.Close)
					if st, err := (&Client{Base: srv.URL}).Status(ctx, id); err != nil || st.Cells != cells || st.Done != 0 {
						t.Fatalf("job %d after the failed restart: %+v, %v; want %d cells, none done", id, st, err, cells)
					}
					noSideFile(t, disk)
					startWorker(t, srv.URL, WorkerConfig{Name: "w", PollInterval: 10 * time.Millisecond})
					assertIdentical(t, waitResult(t, srv.URL, id), wantText, wantJSON)
				})
			}
		})
	}
}

func isStatus(err error, status int) bool {
	ae, ok := err.(*apiError)
	return ok && ae.Status == status
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

// The coordinator bounds no job count: five jobs submitted with no
// worker running are all accepted, and one worker then completes them.
func TestSubmitHasNoJobBound(t *testing.T) {
	coord := newTestCoordinator(t, Config{})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()
	var ids []int
	for i := 0; i < 5; i++ {
		id, _, err := client.Submit(ctx, JobSpec{Uni: tinyUniSpec()})
		if err != nil {
			t.Fatalf("submit %d: %v", i+1, err)
		}
		ids = append(ids, id)
	}
	startWorker(t, srv.URL, WorkerConfig{Name: "steady", PollInterval: 20 * time.Millisecond})
	for _, id := range ids {
		waitResult(t, srv.URL, id)
		if st, err := client.Status(ctx, id); err != nil || !st.Complete || st.Failed != 0 {
			t.Errorf("job %d: status %+v, %v; want complete with no failed cell", id, st, err)
		}
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
		if err != nil && Retryable(err) {
			t.Errorf("spec %+v: 400 classified as retryable", spec)
		}
	}
}

// A journal of another format version holds cells simulated under that
// version's rules. The restarted coordinator neither refuses to start
// over it nor replays it: it starts that job's journal afresh and runs
// every cell again, to the bytes a single-process run prints.
func TestRecoverJournalOfAnotherVersion(t *testing.T) {
	spec := JobSpec{Uni: tinyUniSpec()}
	wantText, wantJSON := reference(t, spec)
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	id, cells, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec)
	srv.Close()
	coord.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Journal every cell, then stamp the header with the previous version.
	grids, fp, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("job-%d.journal", id))
	j, err := experiments.CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grids {
		if _, err := g.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf(`{"type":"header","version":%d,`, experiments.JournalVersion)
	old := fmt.Sprintf(`{"type":"header","version":%d,`, experiments.JournalVersion-1)
	if !strings.HasPrefix(string(data), current) || strings.Count(string(data), "\n") != 1+cells {
		t.Fatalf("journal is not a header and %d cells:\n%s", cells, data)
	}
	if err := os.WriteFile(path, []byte(old+string(data[len(current):])), 0o644); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewCoordinator(Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart over a journal of another version: %v", err)
	}
	defer restarted.Close()
	srv = httptest.NewServer(restarted.Handler())
	defer srv.Close()
	st, err := (&Client{Base: srv.URL}).Status(context.Background(), id)
	if err != nil || st.Done != 0 || st.Cells != cells {
		t.Fatalf("restarted job: %+v, %v; want %d cells and none replayed", st, err, cells)
	}
	startWorker(t, srv.URL, WorkerConfig{Name: "w", PollInterval: 10 * time.Millisecond})
	assertIdentical(t, waitResult(t, srv.URL, id), wantText, wantJSON)
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), current) {
		t.Errorf("the recreated journal does not open with a version-%d header:\n%s", experiments.JournalVersion, data)
	}
}

// A journal of the current format version whose header's hash is not
// the hash of the configs it records — what a restart over an old state
// directory finds once a fingerprinted config struct gains a field —
// may hold cells of another grid. The restarted coordinator neither
// refuses to start over it nor replays it: it starts that job's journal
// afresh and runs every cell again, to the bytes a single-process run
// prints.
func TestRecoverJournalOfAnotherFingerprint(t *testing.T) {
	spec := JobSpec{Uni: tinyUniSpec()}
	wantText, wantJSON := reference(t, spec)
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	id, cells, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec)
	srv.Close()
	coord.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Journal every cell of the job's own grid, then restamp the header
	// with a hash its recorded configs do not have.
	grids, fp, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("job-%d.journal", id))
	j, err := experiments.CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grids {
		if _, err := g.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stamp := `"hash":"` + fp.Hash() + `"`
	if !strings.Contains(string(data), stamp) {
		t.Fatalf("journal header carries no %s", stamp)
	}
	forged := strings.Replace(string(data), stamp, `"hash":"`+strings.Repeat("0", len(fp.Hash()))+`"`, 1)
	if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewCoordinator(Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart over a journal of another fingerprint: %v", err)
	}
	defer restarted.Close()
	srv = httptest.NewServer(restarted.Handler())
	defer srv.Close()
	st, err := (&Client{Base: srv.URL}).Status(context.Background(), id)
	if err != nil || st.Done != 0 || st.Cells != cells {
		t.Fatalf("restarted job: %+v, %v; want %d cells and none replayed", st, err, cells)
	}
	startWorker(t, srv.URL, WorkerConfig{Name: "w", PollInterval: 10 * time.Millisecond})
	assertIdentical(t, waitResult(t, srv.URL, id), wantText, wantJSON)
}

// A journal of the current format version and configuration written by
// another binary may hold cells another simulator computed, under the
// same fingerprint hash. The restarted coordinator treats it as it does
// another version or fingerprint: it starts that job's journal afresh
// and runs every cell again, to the bytes a single-process run prints.
func TestRecoverJournalOfAnotherBinary(t *testing.T) {
	spec := JobSpec{Uni: tinyUniSpec()}
	wantText, wantJSON := reference(t, spec)
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	id, cells, err := (&Client{Base: srv.URL}).Submit(context.Background(), spec)
	srv.Close()
	coord.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Journal every cell of the job's own grid under a header that names
	// another binary.
	grids, fp, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	fp.Binary = "another-binary"
	path := filepath.Join(dir, fmt.Sprintf("job-%d.journal", id))
	j, err := experiments.CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grids {
		if _, err := g.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Appended() != cells {
		t.Fatalf("journaled %d cells, the job has %d", j.Appended(), cells)
	}

	restarted, err := NewCoordinator(Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart over a journal of another binary: %v", err)
	}
	defer restarted.Close()
	srv = httptest.NewServer(restarted.Handler())
	defer srv.Close()
	st, err := (&Client{Base: srv.URL}).Status(context.Background(), id)
	if err != nil || st.Done != 0 || st.Cells != cells {
		t.Fatalf("restarted job: %+v, %v; want %d cells and none replayed", st, err, cells)
	}
	startWorker(t, srv.URL, WorkerConfig{Name: "w", PollInterval: 10 * time.Millisecond})
	assertIdentical(t, waitResult(t, srv.URL, id), wantText, wantJSON)
}

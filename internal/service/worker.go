package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/seeded"
)

// ErrFaultInjected is what Worker.Run returns after executing a
// scripted fault from its Plan — the process-level analogue of a
// chaos perturbation. cmd/expworker maps it to its own exit code so the
// crash harness can tell an injected death from a real failure.
var ErrFaultInjected = errors.New("service: worker died by injected fault")

// WorkerConfig parameterizes a worker.
type WorkerConfig struct {
	// Coordinator is the job API base URL.
	Coordinator string
	// Name identifies the worker to the coordinator (lease ownership,
	// circuit breaker). Required.
	Name string
	// Slots bounds concurrently simulated cells; <= 0 means 1.
	Slots int
	// PollInterval is the idle re-poll spacing when the coordinator has
	// nothing to lease and no hint; <= 0 means 250ms.
	PollInterval time.Duration
	// Plan scripts process-level faults by execution ordinal (nil: none).
	// The fault kinds are guard.FaultDieMidCell, FaultDieBeforeAck and
	// FaultHeartbeatStall.
	Plan seeded.Plan[guard.FaultKind]
	// OnCell, when non-nil, is called at the start of every cell
	// execution (the chaos tests count executions per cell with it).
	OnCell func(job int, grid string, index int, attempt int)
	// Logf, when non-nil, receives worker events.
	Logf func(format string, args ...any)
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// Worker leases cells, simulates them through the same
// experiments.Grid.RunCell the in-process grids use — that single shared
// policy is what makes its records byte-identical to a local run's — and
// reports the records back, heartbeating its leases meanwhile.
type Worker struct {
	cfg    WorkerConfig
	client *Client

	execCount  atomic.Int64
	running    atomic.Int64
	ttlNanos   atomic.Int64 // last-seen lease TTL; paces heartbeats
	stallUntil atomic.Int64 // unix nanos; heartbeat-stall fault window

	killOnce sync.Once
	killed   chan struct{}
	faultMu  sync.Mutex
	fault    error

	// slotFree wakes Run when a lease goroutine frees a slot. One pending
	// wake-up is enough: Run re-counts the free slots after every one.
	slotFree chan struct{}

	leaseMu sync.Mutex
	leases  map[int64]bool // lease IDs this worker holds
}

// detachedCallTimeout bounds the two calls that must outlive a drain —
// the in-flight lease request and the release that follows it.
const detachedCallTimeout = 2 * time.Second

// NewWorker builds a worker; Run does the work.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{
		cfg:      cfg,
		client:   &Client{Base: cfg.Coordinator, HTTP: cfg.HTTPClient},
		killed:   make(chan struct{}),
		slotFree: make(chan struct{}, 1),
		leases:   map[int64]bool{},
	}
}

// trackLease/untrackLease maintain the set of lease IDs the worker
// holds: the heartbeat fences its renewals to it, and what a drain
// leaves in it is handed back by releaseHeld.
func (w *Worker) trackLease(id int64) {
	w.leaseMu.Lock()
	w.leases[id] = true
	w.leaseMu.Unlock()
}

func (w *Worker) untrackLease(id int64) {
	w.leaseMu.Lock()
	delete(w.leases, id)
	w.leaseMu.Unlock()
}

func (w *Worker) activeLeases() []int64 {
	w.leaseMu.Lock()
	defer w.leaseMu.Unlock()
	ids := make([]int64, 0, len(w.leases))
	for id := range w.leases {
		ids = append(ids, id)
	}
	return ids
}

// die executes an injected fault: the worker stops abruptly — no
// completion, no goodbye, heartbeats cease — exactly like a kill -9,
// except the test harness gets a typed error instead of a corpse.
func (w *Worker) die(reason string) {
	w.killOnce.Do(func() {
		w.faultMu.Lock()
		w.fault = fmt.Errorf("%w: %s", ErrFaultInjected, reason)
		w.faultMu.Unlock()
		w.cfg.Logf("worker %q dying: %s", w.cfg.Name, reason)
		close(w.killed)
	})
}

func (w *Worker) faultErr() error {
	w.faultMu.Lock()
	defer w.faultMu.Unlock()
	return w.fault
}

// stalled reports whether the heartbeat-stall fault window is open.
func (w *Worker) stalled() bool {
	return time.Now().UnixNano() < w.stallUntil.Load()
}

// Run registers, then leases and simulates cells until ctx is cancelled
// (returns ctx.Err()) or an injected fault kills the worker (returns
// ErrFaultInjected). Transport errors never kill it: a worker outlives
// coordinator restarts by construction, it just keeps retrying. A
// cancelled ctx is a drain: simulations stop, and every lease the worker
// still holds is handed back to the coordinator before Run returns.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-w.killed:
			cancel()
		case <-ctx.Done():
		}
	}()

	if err := w.register(ctx); err != nil {
		return w.exitErr(ctx, err)
	}
	go w.heartbeatLoop(ctx)

	var wg sync.WaitGroup
	for ctx.Err() == nil {
		free := w.cfg.Slots - int(w.running.Load())
		if free <= 0 {
			select {
			case <-w.slotFree:
			case <-ctx.Done():
			}
			continue
		}
		var resp leaseResponse
		// The request outlives a drain. Abandoned mid-flight it could still
		// be granted — to a worker that is gone, the cell then idle for a
		// whole lease TTL; finished, a late grant is handed back below.
		leaseCtx, leaseDone := context.WithTimeout(context.WithoutCancel(ctx), detachedCallTimeout)
		err := w.client.call(leaseCtx, http.MethodPost, "/api/lease",
			leaseRequest{Worker: w.cfg.Name, Max: free}, &resp)
		leaseDone()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.cfg.Logf("worker %q: lease: %v (retrying)", w.cfg.Name, err)
			if !sleepCtx(ctx, w.cfg.PollInterval) {
				break
			}
			continue
		}
		if len(resp.Leases) == 0 {
			wait := w.cfg.PollInterval
			if resp.RetryMillis > 0 {
				wait = time.Duration(resp.RetryMillis) * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				break
			}
			continue
		}
		for _, l := range resp.Leases {
			w.ttlNanos.Store(l.TTLMillis * int64(time.Millisecond))
			w.trackLease(l.LeaseID)
			if ctx.Err() != nil {
				continue // granted into a drain: held, never started
			}
			w.running.Add(1)
			wg.Add(1)
			go func(l Lease) {
				defer wg.Done()
				// A lease the drain cut short stays held, for releaseHeld.
				if w.runLease(ctx, l) || ctx.Err() == nil {
					w.untrackLease(l.LeaseID)
				}
				w.running.Add(-1)
				select {
				case w.slotFree <- struct{}{}:
				default:
				}
			}(l)
		}
	}
	wg.Wait()
	w.releaseHeld(ctx)
	return w.exitErr(ctx, nil)
}

// releaseHeld hands back the leases a drain left the worker holding —
// granted as it drained, or their simulation or report cut short — so
// the cells redispatch at once instead of after a lease TTL. An injected
// death releases nothing: it means kill -9, and the leases must expire.
// A coordinator without the endpoint answers 404 and they expire too.
func (w *Worker) releaseHeld(ctx context.Context) {
	ids := w.activeLeases()
	if len(ids) == 0 || w.faultErr() != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), detachedCallTimeout)
	defer cancel()
	err := w.client.call(ctx, http.MethodPost, "/api/release",
		releaseRequest{Worker: w.cfg.Name, LeaseIDs: ids}, nil)
	if err != nil {
		w.cfg.Logf("worker %q: releasing %d lease(s): %v (they will expire instead)", w.cfg.Name, len(ids), err)
	}
}

func (w *Worker) exitErr(ctx context.Context, err error) error {
	if ferr := w.faultErr(); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	return ctx.Err()
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// register retries until the coordinator answers; a worker started
// before (or during a restart of) the coordinator just waits.
func (w *Worker) register(ctx context.Context) error {
	for {
		err := w.client.call(ctx, http.MethodPost, "/api/register",
			registerRequest{Worker: w.cfg.Name}, nil)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.cfg.Logf("worker %q: register: %v (retrying)", w.cfg.Name, err)
		if !sleepCtx(ctx, w.cfg.PollInterval) {
			return ctx.Err()
		}
	}
}

// heartbeatLoop renews the worker's leases at a third of the lease TTL,
// fenced to the lease IDs it is actually working — a renewal can never
// resurrect a lease the coordinator already swept or re-granted.
// During an injected heartbeat stall it deliberately skips renewals —
// the leases must expire for the fault to mean anything.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		ttl := time.Duration(w.ttlNanos.Load())
		every := w.cfg.PollInterval
		if ttl > 0 {
			every = ttl / 3
		}
		if every < 10*time.Millisecond {
			every = 10 * time.Millisecond
		}
		if !sleepCtx(ctx, every) {
			return
		}
		if w.stalled() {
			continue
		}
		ids := w.activeLeases()
		if len(ids) == 0 {
			continue
		}
		var resp heartbeatResponse
		err := w.client.call(ctx, http.MethodPost, "/api/heartbeat",
			heartbeatRequest{Worker: w.cfg.Name, LeaseIDs: ids}, &resp)
		if err != nil && ctx.Err() == nil {
			w.cfg.Logf("worker %q: heartbeat: %v", w.cfg.Name, err)
		}
		if len(resp.Expired) > 0 {
			// Fenced: those cells now belong to someone else. Finishing the
			// simulation is harmless (dedup absorbs the report); the log line
			// is the observable.
			w.cfg.Logf("worker %q: fenced off %d expired lease(s): %v", w.cfg.Name, len(resp.Expired), resp.Expired)
		}
	}
}

// runLease simulates one leased cell and reports the record, weaving in
// the scripted fault for this execution ordinal, if any. It returns
// whether the coordinator answered the report.
func (w *Worker) runLease(ctx context.Context, l Lease) bool {
	n := w.execCount.Add(1)
	ev, _ := w.cfg.Plan.At(n) // no event: the zero Kind, FaultNone
	kind := ev.Kind
	if w.cfg.OnCell != nil {
		w.cfg.OnCell(l.Job, l.Grid, l.Index, l.Attempt)
	}
	if kind == guard.FaultDieMidCell {
		// Die "while simulating": no result is ever produced and the
		// lease expires on its own.
		w.die(fmt.Sprintf("%v on execution %d (%s/%d attempt %d)", kind, n, l.Grid, l.Index, l.Attempt))
		return false
	}
	if kind == guard.FaultHeartbeatStall {
		ttl := time.Duration(l.TTLMillis) * time.Millisecond
		w.stallUntil.Store(time.Now().Add(3 * ttl).UnixNano())
		w.cfg.Logf("worker %q: injecting %v on execution %d: heartbeats suppressed for %v",
			w.cfg.Name, kind, n, 3*ttl)
	}

	grids, _, err := l.Spec.resolve()
	if err != nil {
		w.cfg.Logf("worker %q: lease %d: %v", w.cfg.Name, l.LeaseID, err)
		return false
	}
	var grid experiments.Grid
	for _, g := range grids {
		if g.Name() == l.Grid {
			grid = g
		}
	}
	if grid == nil {
		w.cfg.Logf("worker %q: lease %d names grid %q, which its spec does not run", w.cfg.Name, l.LeaseID, l.Grid)
		return false
	}
	payload, err := grid.RunCell(ctx, l.Index)
	if err != nil {
		return false // drained: Run hands the lease back; bad index: it expires
	}

	switch kind {
	case guard.FaultDieBeforeAck:
		// The compute happened; the report never will. The lease expires
		// and the cell re-runs elsewhere — determinism makes the loss
		// invisible in the output.
		w.die(fmt.Sprintf("%v on execution %d (%s/%d attempt %d)", kind, n, l.Grid, l.Index, l.Attempt))
		return false
	case guard.FaultHeartbeatStall:
		// Hold the result until the stall window closes — well past lease
		// expiry, so the cell has been redispatched — then report it late,
		// exercising the coordinator's dedup.
		for w.stalled() && ctx.Err() == nil {
			if !sleepCtx(ctx, 5*time.Millisecond) {
				return false
			}
		}
	}
	return w.complete(ctx, l, payload)
}

// complete reports the record, retrying transport errors and 5xx
// indefinitely — the journal-then-ack contract means an unacked record
// may or may not be durable, and re-reporting is always safe (dedup).
// It returns whether the coordinator answered the report.
func (w *Worker) complete(ctx context.Context, l Lease, payload []byte) bool {
	req := completeRequest{Worker: w.cfg.Name, Job: l.Job, Grid: l.Grid,
		Index: l.Index, LeaseID: l.LeaseID, Record: payload}
	backoff := 50 * time.Millisecond
	for {
		var resp completeResponse
		err := w.client.call(ctx, http.MethodPost, "/api/complete", req, &resp)
		if err == nil {
			if resp.Status != "accepted" {
				w.cfg.Logf("worker %q: %s/%d report was a %s", w.cfg.Name, l.Grid, l.Index, resp.Status)
			}
			return true
		}
		if ctx.Err() != nil || !retryable(err) {
			if ctx.Err() == nil {
				w.cfg.Logf("worker %q: %s/%d report rejected: %v", w.cfg.Name, l.Grid, l.Index, err)
			}
			return false
		}
		w.cfg.Logf("worker %q: %s/%d report: %v (retrying)", w.cfg.Name, l.Grid, l.Index, err)
		if !sleepCtx(ctx, backoff) {
			return false
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

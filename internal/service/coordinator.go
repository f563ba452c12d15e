// Package service is the fault-tolerant distributed experiment service:
// a coordinator that fans grid cells out to workers under time-bounded
// leases, and the worker that simulates them. The correctness bar is
// byte-identity — a distributed run's tables and JSON must match a
// single-process cmd/experiments run of the same grids, under worker
// crashes, heartbeat stalls and coordinator restarts — and the cell
// journal (experiments.Journal) is the single durability layer that
// makes it hold:
//
//   - Every completed cell is journaled (fsync per record, payload
//     hashed) BEFORE the worker's report is acknowledged, so an ack
//     implies durability.
//   - A missed heartbeat expires the worker's leases and the cells are
//     redispatched; a late duplicate report is deduplicated by
//     (grid, index) + payload hash, so at-least-once dispatch still
//     yields exactly-once results.
//   - A job is its journal: it exists once the journal's header, which
//     records the job's configs and selection, is durable, and a
//     coordinator restart rebuilds every job from its journal alone
//     with zero re-simulation of completed cells. A journal of another
//     format version, configuration or binary replays nothing: the
//     job's journal starts afresh and its cells run again.
//
// Determinism does the rest: a cell derives its seed from its
// configuration (experiments.Grid.RunCell), so *which* worker runs a
// cell, how often it is retried, and in what order results arrive are
// all invisible in the output.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/guard"
)

// JobSpec is what a client submits: the same resolved grid configs
// cmd/experiments runs, plus the -only style section selection. The
// configs determine every cell result; the coordinator fingerprints them
// exactly as cmd/experiments does, so a service journal and a
// single-process journal written by the same binary are interchangeable.
// A job's spec is read back from its journal's fingerprint (SpecOf).
type JobSpec struct {
	Only []string               `json:"only,omitempty"`
	Uni  *experiments.UniConfig `json:"uni,omitempty"`
	MP   *experiments.MPConfig  `json:"mp,omitempty"`
}

// resolve maps the spec to the grids it runs and its journal
// fingerprint — the same mapping, and so the same fingerprint,
// cmd/experiments derives from the same configs and selection. Sections
// must be grid sections (table4, fig2, ... are single-process only); an
// empty Only selects every section of every present config.
func (s JobSpec) resolve() ([]experiments.Grid, experiments.Fingerprint, error) {
	for _, name := range s.Only {
		if !experiments.IsGridSection(name) {
			return nil, experiments.Fingerprint{}, fmt.Errorf("service: section %q is not a grid section (want one of %s)",
				name, strings.Join(experiments.GridSections, " "))
		}
	}
	grids, fp, err := experiments.Grids(s.Only, s.Uni, s.MP)
	if err == nil && len(grids) == 0 {
		err = fmt.Errorf("service: spec selects no grid cells")
	}
	return grids, fp, err
}

// SpecOf is the spec a journal header's fingerprint records: the one a
// job runs under, before and after a restart, and the one a client
// submits — the configs of the grids the selection runs and no other.
func SpecOf(fp experiments.Fingerprint) JobSpec {
	return JobSpec{Only: fp.Only, Uni: fp.Uni, MP: fp.MP}
}

// Config parameterizes the coordinator.
type Config struct {
	// Dir holds the per-job cell journals — the state a restarted
	// coordinator resumes from.
	Dir string
	// LeaseTTL bounds how long a dispatched cell may go without a
	// heartbeat before it is redispatched.
	LeaseTTL time.Duration
	// Retry is the per-cell redispatch policy: Attempts bounds how many
	// leases a cell may consume before it is recorded as failed. An
	// expired cell is pending again at once.
	Retry guard.Retry
	// Logf, when non-nil, receives coordinator events (leases expiring,
	// jobs completing).
	Logf func(format string, args ...any)
	// FS is the filesystem the coordinator's journals live on; nil means
	// the real one. The torture harness passes a faultfs injector here.
	FS faultfs.FS
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.Retry.Attempts <= 0 {
		c.Retry = guard.Retry{Attempts: 3}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	c.FS = faultfs.OrOS(c.FS)
	return c
}

// Cell dispatch states.
const (
	cellPending = iota
	cellLeased
	cellDone
)

// cell is the dispatch state of one grid cell. The journal, not this
// struct, is the durability layer: everything here except the journaled
// record is reconstructed (conservatively: fresh attempt counts) after a
// coordinator restart.
type cell struct {
	grid     experiments.Grid
	index    int
	state    int
	attempts int
	leaseID  int64
	worker   string
	expiry   time.Time
	hash     string // DataHash of the accepted record; the dedup identity
	failed   bool
}

// JobStatus is the GET /api/jobs/{id} response.
type JobStatus struct {
	ID         int    `json:"id"`
	Cells      int    `json:"cells"`
	Done       int    `json:"done"`
	Failed     int    `json:"failed"`
	Dupes      int    `json:"dupes"`
	Mismatches int    `json:"mismatches"`
	Complete   bool   `json:"complete"`
	Err        string `json:"err,omitempty"`
}

// JobResult is the GET /api/jobs/{id}/result response once a job
// completes: Text is byte-identical to what cmd/experiments prints to
// stdout for the selected sections, JSON to what its -json flag writes.
type JobResult struct {
	Text       string          `json:"text"`
	JSON       json.RawMessage `json:"json,omitempty"`
	Failures   int             `json:"failures"`
	Dupes      int             `json:"dupes"`
	Mismatches int             `json:"mismatches"`
}

type job struct {
	id         int
	spec       JobSpec
	journal    *experiments.Journal
	grids      []experiments.Grid
	cells      []*cell
	done       int
	failed     int
	dupes      int
	mismatches int
	notify     chan struct{} // closed and replaced on every completion
	result     *JobResult
	resultErr  error
}

func (j *job) complete() bool { return j.done == len(j.cells) }

// Coordinator owns the job queue, the lease table and the journals. All
// state transitions happen under one mutex, and expired leases are swept
// synchronously at the top of every API request — there is no background
// goroutine, so a coordinator is exactly as alive as its HTTP server and
// a kill -9 can never catch it mid-flight anywhere but inside a journal
// append (which the torn-tail truncation absorbs).
type Coordinator struct {
	cfg Config

	mu   sync.Mutex
	jobs map[int]*job
	// queue holds the jobs in submission order, so earlier jobs drain
	// first; every request's expiry sweep drops the complete ones.
	queue []*job
	// leases maps a lease ID to the cell last granted under it. A cell
	// leased again drops its old ID; a done cell keeps its last one, so a
	// heartbeat that raced its completion still finds it.
	leases    map[int64]*cell
	nextJob   int
	nextLease int64
}

var journalFileRe = regexp.MustCompile(`^job-(\d+)\.journal(\.new)?$`)

// NewCoordinator creates a coordinator over cfg.Dir, recovering every
// job whose journal header survives: the job is rebuilt from the header,
// intact cells replay with zero re-simulation, and only the remainder is
// redispatched. A journal of another format version, configuration
// fingerprint or binary is started afresh, and all of that job's cells
// re-run. A side file a header write left (job-N.journal.new) is
// removed.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("service: coordinator needs a state directory")
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state directory: %w", err)
	}
	c := &Coordinator{cfg: cfg, jobs: map[int]*job{}, leases: map[int64]*cell{}, nextJob: 1}

	entries, err := cfg.FS.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("service: scan state directory: %w", err)
	}
	var ids []int
	for _, e := range entries {
		m := journalFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if m[2] != "" { // a side file createJournal never renamed into place is no job
			_ = cfg.FS.Remove(filepath.Join(cfg.Dir, e.Name())) // best effort; recovering its job may have renamed it
			continue
		}
		id, _ := strconv.Atoi(m[1])
		ids = append(ids, id)
	}
	slices.Sort(ids) // the queue's submission order
	for _, id := range ids {
		if err := c.recoverJob(id); err != nil {
			return nil, fmt.Errorf("service: recover job %d: %w", id, err)
		}
		c.nextJob = max(c.nextJob, id+1)
	}
	return c, nil
}

func (c *Coordinator) journalPath(id int) string {
	return filepath.Join(c.cfg.Dir, fmt.Sprintf("job-%d.journal", id))
}

// newJob builds the in-memory cell table for a validated spec.
func newJob(id int, spec JobSpec, grids []experiments.Grid, journal *experiments.Journal) *job {
	j := &job{id: id, spec: spec, journal: journal, grids: grids, notify: make(chan struct{})}
	for _, g := range grids {
		for i := 0; i < g.Size(); i++ {
			j.cells = append(j.cells, &cell{grid: g, index: i})
		}
	}
	return j
}

// recoverJob rebuilds one job from its journal. Cells with an intact
// record are done on arrival — the "zero re-simulation" restart
// guarantee; everything else redispatches with a fresh attempt budget. A
// journal whose header never landed is no job — its submit was never
// answered 201 — and is removed.
func (c *Coordinator) recoverJob(id int) error {
	path := c.journalPath(id)
	recorded, err := experiments.ReadFingerprint(c.cfg.FS, path)
	var unwritten *experiments.HeaderNotWrittenError
	var stale *experiments.FingerprintError
	if errors.As(err, &unwritten) {
		c.cfg.Logf("job %d: %v; no job, removing the file", id, err)
		return c.cfg.FS.Remove(path)
	}
	if err != nil {
		return err
	}
	spec := SpecOf(recorded)
	grids, fp, err := spec.resolve()
	if err != nil {
		return err
	}
	journal, err := experiments.OpenJournalFS(c.cfg.FS, path, fp)
	if errors.As(err, &stale) {
		// Another format version, configuration hash or binary: its cells
		// are not known to be this simulator's, and the job re-runs them.
		c.cfg.Logf("job %d: %v; re-running its cells", id, err)
		journal, err = c.createJournal(id, fp)
	}
	if err != nil {
		return err
	}
	j := newJob(id, spec, grids, journal)
	for _, cl := range j.cells {
		raw, ok := journal.Replay(cl.grid.Name(), cl.index)
		if !ok {
			continue
		}
		failed, err := cl.grid.Validate(raw)
		if err != nil {
			continue // not a cell's outcome: re-run the cell
		}
		cl.state = cellDone
		cl.hash = experiments.DataHash(raw)
		cl.failed = failed
		j.done++
		if failed {
			j.failed++
		}
	}
	c.cfg.Logf("job %d recovered: %d/%d cells replayed from journal", id, j.done, len(j.cells))
	if j.complete() {
		c.assembleLocked(j)
	} else {
		c.queue = append(c.queue, j)
	}
	c.jobs[id] = j
	return nil
}

// createJournal writes a job's journal header to a side file, renames it
// over job-N.journal and syncs the directory, so that name never holds a
// header that has not landed: a submit's journal appears whole or not at
// all, and a stale journal started afresh leaves, whatever fails or
// crashes, the old header or the new one, never a file recovery takes
// for no job. A failed header write, sync or rename removes the side
// file; one a crash leaves, the next restart's scan removes.
func (c *Coordinator) createJournal(id int, fp experiments.Fingerprint) (*experiments.Journal, error) {
	path := c.journalPath(id)
	journal, err := experiments.CreateJournalFS(c.cfg.FS, path+".new", fp)
	if err != nil {
		_ = c.cfg.FS.Remove(path + ".new") // best effort, as below
		return nil, err
	}
	if err = c.cfg.FS.Rename(path+".new", path); err == nil {
		err = c.cfg.FS.SyncDir(c.cfg.Dir)
	}
	if err != nil {
		journal.Close()
		_ = c.cfg.FS.Remove(path + ".new") // gone if renamed; a restart's scan removes what is left
		return nil, err
	}
	return journal, nil
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/jobs", c.handleSubmit)
	mux.HandleFunc("GET /api/jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /api/jobs/{id}/result", c.handleResult)
	mux.HandleFunc("POST /api/lease", c.handleLease)
	mux.HandleFunc("POST /api/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /api/release", c.handleRelease)
	mux.HandleFunc("POST /api/complete", c.handleComplete)
	return mux
}

// Close closes every job journal (tests; the serving process normally
// lives until kill).
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.jobs {
		j.journal.Close()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// expireLocked sweeps expired leases: the cell goes back to pending, or,
// attempts exhausted, is recorded as failed so the job can complete. It
// first drops complete jobs from the queue: they hold no lease.
func (c *Coordinator) expireLocked(now time.Time) {
	c.queue = slices.DeleteFunc(c.queue, (*job).complete)
	for _, j := range c.queue {
		for _, cl := range j.cells {
			if cl.state != cellLeased || now.Before(cl.expiry) {
				continue
			}
			c.cfg.Logf("job %d: lease %d on %s/%d held by %q expired (attempt %d)",
				j.id, cl.leaseID, cl.grid.Name(), cl.index, cl.worker, cl.attempts)
			cl.state = cellPending
			cl.worker = ""
			if cl.attempts >= c.cfg.Retry.Attempts {
				c.failCellLocked(j, cl, fmt.Sprintf("dispatch: %d lease attempts expired without a result", cl.attempts))
			}
		}
	}
}

// failCellLocked records a synthetic failed record for a cell the
// dispatcher has given up on, through the same journal-then-mark path a
// worker report takes, so the job still completes (degraded, like a
// failed in-process cell) and a restart replays the decision.
func (c *Coordinator) failCellLocked(j *job, cl *cell, reason string) {
	if err := c.markDoneLocked(j, cl, cl.grid.FailedRecord(reason), true); err != nil {
		c.cfg.Logf("job %d: %s/%d: journaling dispatch failure: %v", j.id, cl.grid.Name(), cl.index, err)
	}
}

// markDoneLocked journals the record and transitions the cell to done —
// in that order; a record that did not reach disk is never acked and
// never counted. The final cell of a job triggers assembly.
func (c *Coordinator) markDoneLocked(j *job, cl *cell, raw json.RawMessage, failed bool) error {
	j.journal.Record(cl.grid.Name(), cl.index, raw)
	if err := j.journal.Err(); err != nil {
		return err
	}
	cl.state = cellDone
	cl.worker = ""
	cl.hash = experiments.DataHash(raw)
	cl.failed = failed
	j.done++
	if failed {
		j.failed++
	}
	if j.complete() {
		c.assembleLocked(j)
		c.cfg.Logf("job %d complete: %d cells, %d failed, %d duplicate reports, %d mismatched reports",
			j.id, j.done, j.failed, j.dupes, j.mismatches)
	}
	close(j.notify)
	j.notify = make(chan struct{})
	return nil
}

// assembleLocked folds the journal's records into the final tables and
// JSON through each grid's own assembly, the one cmd/experiments prints
// with — this is where byte-identity is inherited rather than
// re-implemented.
func (c *Coordinator) assembleLocked(j *job) {
	var text strings.Builder
	blob := map[string]any{}
	failures := 0
	for _, g := range j.grids {
		recs := make([]json.RawMessage, g.Size())
		for i := range recs {
			var ok bool
			if recs[i], ok = j.journal.Replay(g.Name(), i); !ok {
				j.resultErr = fmt.Errorf("service: job %d: %s cell %d missing from journal at assembly", j.id, g.Name(), i)
				return
			}
		}
		rep, err := g.Assemble(recs)
		if err != nil {
			j.resultErr = err
			return
		}
		text.WriteString(rep.Text)
		blob[g.Name()] = rep.Value
		failures += rep.Failures
	}
	data, err := json.MarshalIndent(blob, "", "  ")
	if err != nil {
		j.resultErr = err
		return
	}
	j.result = &JobResult{Text: text.String(), JSON: data, Failures: failures,
		Dupes: j.dupes, Mismatches: j.mismatches}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decode spec: %v", err)
		return
	}
	grids, fp, err := spec.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())

	// A job exists once its journal header is durable, directory entry
	// included; only then is it answered 201, so every 201 is one job on
	// disk. A failed submit removes the file a failed directory sync left.
	// Yet a restart can still find a job no client was told of: after a
	// crash between the directory sync and the reply, or after a failed
	// directory sync whose removal never landed.
	id := c.nextJob
	journal, err := c.createJournal(id, fp)
	if err != nil {
		_ = c.cfg.FS.Remove(c.journalPath(id)) // best effort: a durable header that outlives it is a job
		httpError(w, http.StatusInternalServerError, "create journal: %v", err)
		return
	}
	c.nextJob++
	j := newJob(id, SpecOf(fp), grids, journal)
	c.jobs[id] = j
	c.queue = append(c.queue, j)
	c.cfg.Logf("job %d submitted: %d cells in %d grid(s)", id, len(j.cells), len(grids))
	writeJSON(w, http.StatusCreated, submitResponse{ID: id, Cells: len(j.cells)})
}

func (c *Coordinator) jobFromPath(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return nil, false
	}
	j := c.jobs[id]
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %d", id)
		return nil, false
	}
	return j, true
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	j, ok := c.jobFromPath(w, r)
	if !ok {
		return
	}
	st := JobStatus{ID: j.id, Cells: len(j.cells), Done: j.done, Failed: j.failed,
		Dupes: j.dupes, Mismatches: j.mismatches, Complete: j.complete()}
	if j.resultErr != nil {
		st.Err = j.resultErr.Error()
	}
	writeJSON(w, http.StatusOK, st)
}

// maxResultWait caps how long one /result request may be held, so a
// client cannot park a handler indefinitely.
const maxResultWait = 30 * time.Second

// handleResult answers 200 with the result, 500 with the assembly error,
// or 202 while the job is still running. With ?wait=<ms> a running job
// holds the request — woken by the job's completion notify, not a poll —
// until the job completes, the wait lapses (202) or the client hangs up.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if s := r.URL.Query().Get("wait"); s != "" {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil || ms < 0 {
			httpError(w, http.StatusBadRequest, "bad wait %q", s)
			return
		}
		wait = min(time.Duration(ms)*time.Millisecond, maxResultWait)
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		now := time.Now()
		c.expireLocked(now)
		j, ok := c.jobFromPath(w, r)
		if !ok {
			c.mu.Unlock()
			return
		}
		result, resultErr := j.result, j.resultErr
		running := JobStatus{ID: j.id, Cells: len(j.cells), Done: j.done}
		notify := j.notify
		c.mu.Unlock()

		left := deadline.Sub(now)
		switch {
		case resultErr != nil:
			httpError(w, http.StatusInternalServerError, "%v", resultErr)
			return
		case result != nil:
			writeJSON(w, http.StatusOK, *result)
			return
		case left <= 0:
			writeJSON(w, http.StatusAccepted, running)
			return
		}
		// Wake at least once a lease TTL to sweep: expiry of the last
		// outstanding lease is itself a completion path, and it only runs
		// inside requests.
		timer := time.NewTimer(min(left, c.cfg.LeaseTTL))
		select {
		case <-r.Context().Done():
			timer.Stop()
			return
		case <-notify:
		case <-timer.C:
		}
		timer.Stop()
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
		httpError(w, http.StatusBadRequest, "lease needs a worker name")
		return
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	var resp leaseResponse
	for _, j := range c.queue {
		for _, cl := range j.cells {
			if len(resp.Leases) >= max {
				break
			}
			if cl.state != cellPending {
				continue
			}
			c.nextLease++
			cl.state = cellLeased
			cl.attempts++
			delete(c.leases, cl.leaseID)
			cl.leaseID = c.nextLease
			c.leases[cl.leaseID] = cl
			cl.worker = req.Worker
			cl.expiry = now.Add(c.cfg.LeaseTTL)
			resp.Leases = append(resp.Leases, Lease{
				Job: j.id, Grid: cl.grid.Name(), Index: cl.index,
				LeaseID: cl.leaseID, Attempt: cl.attempts,
				TTLMillis: c.cfg.LeaseTTL.Milliseconds(), Spec: j.spec,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
		httpError(w, http.StatusBadRequest, "heartbeat needs a worker name")
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Sweep FIRST: a renewal that arrives after its lease's TTL has
	// elapsed must not resurrect it — the sweep may already have
	// redispatched the cell, and renewing here would leave two workers
	// believing they hold it.
	c.expireLocked(now)
	resp := heartbeatResponse{}
	// Fenced renewal: each ID renews only if that exact lease is still
	// live and still belongs to this worker.
	for _, id := range req.LeaseIDs {
		cl := c.leases[id]
		switch {
		case cl != nil && cl.state == cellLeased && cl.worker == req.Worker:
			cl.expiry = now.Add(c.cfg.LeaseTTL)
			resp.Renewed++
		case cl != nil && cl.state == cellDone:
			// The cell finished with this as its last lease: the heartbeat
			// raced the worker dropping the ID. Nothing to renew, and the
			// worker was not fenced off anything.
		default:
			resp.Expired = append(resp.Expired, id)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRelease takes leases back from a draining worker: each named
// lease that is still live and still held by that worker returns its
// cell to pending. A release is not an expiry: the attempt is refunded
// and nothing is journaled. Unknown, foreign, expired or completed IDs
// are ignored, so a repeated release is harmless.
func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
		httpError(w, http.StatusBadRequest, "release needs a worker name")
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Sweep first, as the heartbeat does: a lease past its TTL is an
	// expiry, not a release.
	c.expireLocked(time.Now())
	resp := releaseResponse{}
	for _, id := range req.LeaseIDs {
		cl := c.leases[id]
		if cl == nil || cl.state != cellLeased || cl.worker != req.Worker {
			continue
		}
		cl.state = cellPending
		cl.worker = ""
		cl.attempts--
		resp.Released++
		c.cfg.Logf("lease %d on %s/%d released by %q", id, cl.grid.Name(), cl.index, req.Worker)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode completion: %v", err)
		return
	}
	// Canonicalize the payload so dedup hashes are encoding-independent
	// and the journaled bytes match what Journal.Record would write.
	var buf bytes.Buffer
	if err := json.Compact(&buf, req.Record); err != nil {
		httpError(w, http.StatusBadRequest, "record is not JSON: %v", err)
		return
	}
	raw := json.RawMessage(buf.Bytes())

	// Find the cell, then let its grid judge the record outside the lock
	// (a job's cell table never changes once it exists). A record that is
	// neither a result nor a diagnosed failure is rejected — a worker
	// cannot ack its way out of doing the work.
	c.mu.Lock()
	j := c.jobs[req.Job]
	c.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %d", req.Job)
		return
	}
	var cl *cell
	for _, cand := range j.cells {
		if cand.grid.Name() == req.Grid && cand.index == req.Index {
			cl = cand
			break
		}
	}
	if cl == nil {
		httpError(w, http.StatusBadRequest, "job %d has no cell %s/%d", req.Job, req.Grid, req.Index)
		return
	}
	failed, err := cl.grid.Validate(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())

	if cl.state == cellDone {
		// At-least-once dispatch means late duplicates are expected
		// (heartbeat stall, redispatch racing the original). Identical
		// payloads are the determinism guarantee holding; divergent ones
		// mean a worker broke it — keep the journaled first record and
		// flag loudly.
		if experiments.DataHash(raw) == cl.hash {
			j.dupes++
			c.cfg.Logf("job %d: duplicate report for %s/%d from %q (deduplicated)", j.id, req.Grid, req.Index, req.Worker)
			writeJSON(w, http.StatusOK, completeResponse{Status: "duplicate"})
			return
		}
		j.mismatches++
		c.cfg.Logf("job %d: MISMATCHED duplicate report for %s/%d from %q — determinism violation; keeping first record",
			j.id, req.Grid, req.Index, req.Worker)
		writeJSON(w, http.StatusOK, completeResponse{Status: "mismatch"})
		return
	}

	// Journal-then-ack: a 200 means the record is on disk. A journal
	// write failure leaves the cell un-acked; the worker retries or the
	// lease expires and redispatches.
	if err := c.markDoneLocked(j, cl, raw, failed); err != nil {
		httpError(w, http.StatusInternalServerError, "journal: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, completeResponse{Status: "accepted"})
}

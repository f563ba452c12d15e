package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Wire types of the job API. Everything is plain JSON over HTTP; the
// cell records themselves travel as the raw journal payloads (what
// experiments.Grid.RunCell returns), so a worker's report and a journal
// line carry the same bytes.

type submitResponse struct {
	ID    int `json:"id"`
	Cells int `json:"cells"`
}

type registerRequest struct {
	Worker string `json:"worker"`
}

// Lease hands one cell to one worker for TTLMillis. The full job spec
// rides along so a worker needs no job-state round trip — it can
// simulate from the lease alone. Attempt is 1-based across the cell's
// dispatch history.
type Lease struct {
	Job       int     `json:"job"`
	Grid      string  `json:"grid"`
	Index     int     `json:"index"`
	LeaseID   int64   `json:"leaseId"`
	Attempt   int     `json:"attempt"`
	TTLMillis int64   `json:"ttlMillis"`
	Spec      JobSpec `json:"spec"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

type leaseResponse struct {
	Leases []Lease `json:"leases,omitempty"`
	// RetryMillis, on an empty grant, is how long the worker should wait
	// before asking again (longer while quarantined).
	RetryMillis int64 `json:"retryMillis,omitempty"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	// LeaseIDs fences the renewal: only these leases renew, and only if
	// still held by Worker. An ID the coordinator no longer recognizes
	// (expired and swept, or re-leased to someone else) comes back in
	// Expired — the worker is fenced off that cell and should stop
	// working it. An empty list renews nothing.
	LeaseIDs []int64 `json:"leaseIds,omitempty"`
}

type heartbeatResponse struct {
	Renewed int `json:"renewed"`
	// Expired lists requested lease IDs that could not be renewed.
	Expired []int64 `json:"expired,omitempty"`
}

// releaseRequest hands leases back before they expire: a draining
// worker names the leases it still holds and the coordinator returns
// those cells to pending at once. Fenced like the heartbeat — only a live
// lease still held by Worker is released, anything else is ignored.
type releaseRequest struct {
	Worker   string  `json:"worker"`
	LeaseIDs []int64 `json:"leaseIds,omitempty"`
}

type releaseResponse struct {
	Released int `json:"released"`
}

type completeRequest struct {
	Worker  string          `json:"worker"`
	Job     int             `json:"job"`
	Grid    string          `json:"grid"`
	Index   int             `json:"index"`
	LeaseID int64           `json:"leaseId"`
	Record  json.RawMessage `json:"record"`
}

type completeResponse struct {
	Status string `json:"status"` // accepted, duplicate, mismatch
}

// Client is a minimal job-API client shared by the worker, the
// cmd/expserve client mode and the tests.
type Client struct {
	// Base is the coordinator URL, e.g. "http://127.0.0.1:7711".
	Base string
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is a non-2xx response; Status lets callers distinguish
// terminal rejections (4xx) from retryable conditions (429, 5xx).
type apiError struct {
	Status     int
	RetryAfter time.Duration
	Body       string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("coordinator returned %d: %s", e.Status, e.Body)
}

// retryable reports whether err is worth retrying: network errors and
// 429/5xx are, other API rejections are terminal.
func retryable(err error) bool {
	if ae, ok := err.(*apiError); ok {
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	return true // transport error: coordinator down or restarting
}

// RetryAfter classifies err for submit-style callers: retry reports
// whether the call is worth repeating, wait how long to back off first —
// the server's Retry-After when the rejection carried one (429
// backpressure), a transport-level default otherwise.
func RetryAfter(err error) (wait time.Duration, retry bool) {
	if !retryable(err) {
		return 0, false
	}
	wait = 500 * time.Millisecond
	if ae, ok := err.(*apiError); ok && ae.RetryAfter > 0 {
		wait = ae.RetryAfter
	}
	return wait, true
}

// call POSTs in (or GETs when in is nil) and decodes the JSON response
// into out.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	// 202 ("still running", from /result) is deliberately an error here:
	// its body is a JobStatus, not the caller's out type.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		ae := &apiError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return ae
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit posts a job spec and returns its id and cell count.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (id, cells int, err error) {
	var resp submitResponse
	if err := c.call(ctx, http.MethodPost, "/api/jobs", spec, &resp); err != nil {
		return 0, 0, err
	}
	return resp.ID, resp.Cells, nil
}

// Status fetches a job's progress.
func (c *Client) Status(ctx context.Context, job int) (JobStatus, error) {
	var st JobStatus
	err := c.call(ctx, http.MethodGet, fmt.Sprintf("/api/jobs/%d", job), nil, &st)
	return st, err
}

// Result fetches a completed job's result; an incomplete job returns a
// 202 apiError.
func (c *Client) Result(ctx context.Context, job int) (JobResult, error) {
	return c.result(ctx, job, 0)
}

// result is Result with a long-poll: wait > 0 asks the coordinator to
// hold the request until the job completes or wait lapses.
func (c *Client) result(ctx context.Context, job int, wait time.Duration) (JobResult, error) {
	path := fmt.Sprintf("/api/jobs/%d/result", job)
	if wait > 0 {
		path += fmt.Sprintf("?wait=%d", wait.Milliseconds())
	}
	var res JobResult
	err := c.call(ctx, http.MethodGet, path, nil, &res)
	if err == nil && len(res.JSON) > 0 {
		// encoding/json compacts an embedded RawMessage when the response
		// is marshaled, flattening the coordinator's MarshalIndent output.
		// Re-indenting restores it byte-for-byte: MarshalIndent is Marshal
		// followed by Indent, and both sides HTML-escape identically.
		var buf bytes.Buffer
		if ierr := json.Indent(&buf, res.JSON, "", "  "); ierr == nil {
			res.JSON = buf.Bytes()
		}
	}
	return res, err
}

// resultWait is how long WaitResult asks the coordinator to hold each
// /result request. Short enough that a dead connection is noticed,
// long enough that a job costs a handful of requests.
const resultWait = 10 * time.Second

// WaitResult blocks until the job completes and returns its result. It
// long-polls: the coordinator holds each request until the job is done,
// so the result arrives when the last cell does, not a poll tick later.
// It rides out coordinator restarts: transport errors retry (the job's
// journal survives the process, and a restarting coordinator presents
// as a refused connection, not a status code). Any API status other
// than 202 ("still running") and 429 is terminal — in particular a 500
// from /result carries the job's assembly error and retrying it would
// loop forever. poll spaces the retries after a transport error, a 429,
// or a 202 that came back before the wait lapsed (a coordinator that
// ignores ?wait=); poll <= 0 defaults to 200ms.
func (c *Client) WaitResult(ctx context.Context, job int, poll time.Duration) (JobResult, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		asked := time.Now()
		res, err := c.result(ctx, job, resultWait)
		if err == nil {
			return res, nil
		}
		if ae, ok := err.(*apiError); ok {
			if ae.Status != http.StatusAccepted && ae.Status != http.StatusTooManyRequests {
				return JobResult{}, err
			}
			if ae.Status == http.StatusAccepted && time.Since(asked) >= resultWait {
				continue // the coordinator held the request: ask again at once
			}
		}
		select {
		case <-ctx.Done():
			return JobResult{}, ctx.Err()
		case <-time.After(poll):
		}
	}
}

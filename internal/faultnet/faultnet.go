// Package faultnet is the seeded network-fault layer for the
// distributed experiment service. A Transport wraps any
// http.RoundTripper and executes a deterministic seeded.Plan against the
// request stream flowing through it — dropped requests, delayed and
// duplicated deliveries, connection resets after the server processed
// the request, and truncated response bodies — which stresses exactly
// the machinery the coordinator claims makes the service safe under a
// lossy network: at-least-once dispatch, payload-hash dedup, and lease
// expiry and redispatch.
//
// Schedules are ordinal-based, not probabilistic: PlanFromSeed derives
// which request ordinal each fault class fires on as a pure function of
// the seed, so the same seed replays the same schedule and a failing
// schedule shrinks by dropping events. The package is a leaf: it imports
// only the standard library and seeded.
package faultnet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"repro/internal/seeded"
)

// FaultKind classifies one injected network failure.
type FaultKind int

const (
	// FaultDrop: the request is never forwarded; the caller sees a
	// transport error. The server never learns the request existed.
	FaultDrop FaultKind = iota
	// FaultDelay: the request is forwarded after a deterministic pause —
	// long enough to overlap lease TTLs, not long enough to stall a run.
	FaultDelay
	// FaultDup: the request is delivered to the server twice; the first
	// delivery's response is discarded, the second is returned. The
	// server must tolerate the duplicate.
	FaultDup
	// FaultReset: the request is forwarded and processed, but the
	// connection "resets" before the response arrives — the caller sees
	// a transport error for work the server actually did. The classic
	// at-least-once trap: the retry must dedup, not double-apply.
	FaultReset
	// FaultTruncate: the response starts arriving, then the body errors
	// after k bytes. The caller's read fails mid-decode and it must
	// retry as if the response never came.
	FaultTruncate
)

// String names the fault for schedules and reports.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDup:
		return "duplicate"
	case FaultReset:
		return "reset"
	case FaultTruncate:
		return "truncation"
	default:
		return fmt.Sprintf("netfault(%d)", int(k))
	}
}

// NetFaultKinds lists every injectable network fault class, for
// coverage accounting.
var NetFaultKinds = []FaultKind{FaultDrop, FaultDelay, FaultDup, FaultReset, FaultTruncate}

// Layer is the network-fault vocabulary: every kind counts the requests
// through one transport, so a plan names an ordinal at most once.
var Layer = seeded.Layer[FaultKind]{OneCounter: true}

// Fault describes one injected failure, delivered to the OnFault hook.
type Fault struct {
	Kind    FaultKind
	Ordinal int64 // which request (1-based) through this transport fired
	URL     string
}

// InjectedError wraps the transport-shaped failure an injected fault
// returns, recognizable via errors.As and errors.Is(err, syscall.ECONNRESET).
type InjectedError struct {
	Fault Fault
	Err   error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultnet: injected %v on %s (request %d): %v", e.Fault.Kind, e.Fault.URL, e.Fault.Ordinal, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// PlanFromSeed derives a deterministic network schedule from a seed:
// every class armed, each on its own request ordinal in 2..21, so every
// fault actually fires if the request stream is long enough.
func PlanFromSeed(seed int64) seeded.Plan[FaultKind] {
	st := seeded.Stream(uint64(seed) ^ 0x6e657477) // decorrelate from the disk layer's stream
	var p seeded.Plan[FaultKind]
	for _, kind := range NetFaultKinds {
		e := seeded.Event[FaultKind]{Kind: kind}
		for taken := true; taken; _, taken = p.At(e.At) {
			e.At = int64(st.Next()%20) + 2
		}
		switch kind {
		case FaultDelay:
			e.Arg = int64(st.Next()%40) + 10
		case FaultTruncate:
			e.Arg = int64(st.Next() % 64)
		}
		p = append(p, e)
	}
	return p
}

// Transport wraps an http.RoundTripper and executes a seeded.Plan against
// its request ordinal (1-based). The counter is per transport, so each
// worker/client gets its own deterministic schedule. A delay event's Arg
// is the pause in milliseconds; a truncation event's Arg is how much of
// the response body gets through before the error. Faults are one-shot:
// under a plan that passes Layer.Check each class fires at most once per
// transport lifetime.
type Transport struct {
	// Base handles the real round trips; nil means
	// http.DefaultTransport.
	Base http.RoundTripper
	// OnFault (optional) observes every fired fault.
	OnFault func(Fault)

	plan seeded.Plan[FaultKind]

	mu       sync.Mutex
	requests int64
	fired    map[FaultKind]int64
}

// NewTransport wraps base with plan.
func NewTransport(base http.RoundTripper, plan seeded.Plan[FaultKind], onFault func(Fault)) *Transport {
	return &Transport{Base: base, OnFault: onFault, plan: plan, fired: map[FaultKind]int64{}}
}

// Fired returns how many faults of each class this transport executed.
func (t *Transport) Fired() map[FaultKind]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[FaultKind]int64, len(t.fired))
	for k, v := range t.fired {
		out[k] = v
	}
	return out
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// decide consumes one request ordinal and returns the fault to execute
// and its argument, if any.
func (t *Transport) decide(url string) (*Fault, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	e, ok := t.plan.At(t.requests)
	if !ok {
		return nil, 0
	}
	f := Fault{Kind: e.Kind, Ordinal: t.requests, URL: url}
	t.fired[e.Kind]++
	hook := t.OnFault
	if hook != nil {
		t.mu.Unlock()
		hook(f)
		t.mu.Lock()
	}
	return &f, e.Arg
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f, arg := t.decide(req.URL.String())
	if f == nil {
		return t.base().RoundTrip(req)
	}
	switch f.Kind {
	case FaultDrop:
		// The server never sees it; drain the body like a transport would.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, &InjectedError{Fault: *f, Err: syscall.ECONNREFUSED}

	case FaultDelay:
		select {
		case <-time.After(time.Duration(arg) * time.Millisecond):
		case <-req.Context().Done():
			return nil, &InjectedError{Fault: *f, Err: req.Context().Err()}
		}
		return t.base().RoundTrip(req)

	case FaultDup:
		first, body, err := t.replayable(req)
		if err != nil {
			return nil, err
		}
		if resp, err := t.base().RoundTrip(first); err == nil {
			// First delivery processed; its response is lost on the floor.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		second := req.Clone(req.Context())
		second.Body = io.NopCloser(bytes.NewReader(body))
		return t.base().RoundTrip(second)

	case FaultReset:
		resp, err := t.base().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// The server did the work; the caller never learns.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &InjectedError{Fault: *f, Err: syscall.ECONNRESET}

	case FaultTruncate:
		resp, err := t.base().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{inner: resp.Body, remaining: int(arg), fault: *f}
		return resp, nil
	}
	return t.base().RoundTrip(req)
}

// replayable rebuilds req with an in-memory body so it can be sent
// twice.
func (t *Transport) replayable(req *http.Request) (*http.Request, []byte, error) {
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	clone := req.Clone(req.Context())
	clone.Body = io.NopCloser(bytes.NewReader(body))
	return clone, body, nil
}

// truncatedBody delivers the first remaining bytes of the real body,
// then errors as a mid-stream connection loss.
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int
	fault     Fault
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, &InjectedError{Fault: b.fault, Err: syscall.ECONNRESET}
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= n
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }

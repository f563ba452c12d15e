package faultnet

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/seeded"
)

// echoServer counts deliveries and echoes each request body back.
func echoServer(t *testing.T) (*httptest.Server, *int64, *sync.Map) {
	t.Helper()
	var hits int64
	var bodies sync.Map // delivery ordinal -> body string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt64(&hits, 1)
		data, _ := io.ReadAll(r.Body)
		bodies.Store(n, string(data))
		io.WriteString(w, "echo:"+string(data))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits, &bodies
}

func post(t *testing.T, c *http.Client, url, body string) (string, error) {
	t.Helper()
	resp, err := c.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

func TestTransportDrop(t *testing.T) {
	srv, hits, _ := echoServer(t)
	tr := NewTransport(nil, seeded.Plan[FaultKind]{{Kind: FaultDrop, At: 2}}, nil)
	c := &http.Client{Transport: tr}

	if _, err := post(t, c, srv.URL, "one"); err != nil {
		t.Fatalf("request 1 faulted early: %v", err)
	}
	_, err := post(t, c, srv.URL, "two")
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Fault.Kind != FaultDrop {
		t.Fatalf("request 2 err = %v, want injected drop", err)
	}
	if got := atomic.LoadInt64(hits); got != 1 {
		t.Errorf("server saw %d deliveries, want 1 (drop must not forward)", got)
	}
	// One-shot: request 3 sails through.
	if _, err := post(t, c, srv.URL, "three"); err != nil {
		t.Errorf("request 3 after drop: %v", err)
	}
	if got := tr.Fired()[FaultDrop]; got != 1 {
		t.Errorf("fired[drop] = %d", got)
	}
}

func TestTransportDelayForwardsAfterPause(t *testing.T) {
	srv, hits, _ := echoServer(t)
	tr := NewTransport(nil, seeded.Plan[FaultKind]{{Kind: FaultDelay, At: 1, Arg: 30}}, nil)
	c := &http.Client{Transport: tr}

	start := time.Now()
	out, err := post(t, c, srv.URL, "slow")
	if err != nil || out != "echo:slow" {
		t.Fatalf("delayed request = %q, %v", out, err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("request returned in %v, want >= 30ms", d)
	}
	if got := atomic.LoadInt64(hits); got != 1 {
		t.Errorf("deliveries = %d", got)
	}
}

func TestTransportDupDeliversTwice(t *testing.T) {
	srv, hits, bodies := echoServer(t)
	tr := NewTransport(nil, seeded.Plan[FaultKind]{{Kind: FaultDup, At: 1}}, nil)
	c := &http.Client{Transport: tr}

	out, err := post(t, c, srv.URL, "payload")
	if err != nil || out != "echo:payload" {
		t.Fatalf("dup request = %q, %v", out, err)
	}
	if got := atomic.LoadInt64(hits); got != 2 {
		t.Fatalf("server saw %d deliveries, want 2", got)
	}
	for n := int64(1); n <= 2; n++ {
		if b, _ := bodies.Load(n); b != "payload" {
			t.Errorf("delivery %d body = %v, want full payload", n, b)
		}
	}
}

func TestTransportResetAfterProcessing(t *testing.T) {
	srv, hits, _ := echoServer(t)
	tr := NewTransport(nil, seeded.Plan[FaultKind]{{Kind: FaultReset, At: 1}}, nil)
	c := &http.Client{Transport: tr}

	_, err := post(t, c, srv.URL, "done-but-lost")
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("err = %v, want injected ECONNRESET", err)
	}
	// The whole point: the server DID process it.
	if got := atomic.LoadInt64(hits); got != 1 {
		t.Errorf("server saw %d deliveries, want 1", got)
	}
}

func TestTransportTruncatesBody(t *testing.T) {
	srv, _, _ := echoServer(t)
	tr := NewTransport(nil, seeded.Plan[FaultKind]{{Kind: FaultTruncate, At: 1, Arg: 4}}, nil)
	c := &http.Client{Transport: tr}

	resp, err := c.Post(srv.URL, "text/plain", strings.NewReader("longish body"))
	if err != nil {
		t.Fatalf("truncation must fail the read, not the round trip: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("body read err = %v, want injected ECONNRESET", err)
	}
	if string(data) != "echo" {
		t.Errorf("bytes before truncation = %q, want first 4", data)
	}
}

// PlanFromSeed is a pure function of the seed that arms every class on an
// ordinal of its own; a hand-built plan that puts two classes on one
// request, where the second could never fire, is reported by Layer.Check.
func TestPlanFromSeedDeterministicAndCollisionFree(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		a := PlanFromSeed(seed)
		if b := PlanFromSeed(seed); a.String() != b.String() {
			t.Fatalf("seed %d: plans differ: %s vs %s", seed, a, b)
		}
		if err := Layer.Check(a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, kind := range NetFaultKinds {
			if e, ok := a.Lookup(kind); !ok || e.At < 1 {
				t.Fatalf("seed %d: class %v unarmed in %s", seed, kind, a)
			}
		}
		if e, _ := a.Lookup(FaultDelay); e.Arg <= 0 {
			t.Fatalf("seed %d: delay class armed with no delay", seed)
		}
	}
	colliding := seeded.Plan[FaultKind]{{Kind: FaultDrop, At: 3}, {Kind: FaultReset, At: 3}}
	err := Layer.Check(colliding)
	if err == nil || !strings.Contains(err.Error(), "drop@3") || !strings.Contains(err.Error(), "reset@3") {
		t.Errorf("Check(%s) = %v, want an error naming both events", colliding, err)
	}
}

// The OnFault hook sees every firing with its ordinal, and ordinals
// advance per transport (two transports with the same plan fire
// independently).
func TestTransportOnFaultAndIsolation(t *testing.T) {
	srv, _, _ := echoServer(t)
	var mu sync.Mutex
	var seen []Fault
	plan := seeded.Plan[FaultKind]{{Kind: FaultDrop, At: 2}}
	trA := NewTransport(nil, plan, func(f Fault) { mu.Lock(); seen = append(seen, f); mu.Unlock() })
	trB := NewTransport(nil, plan, func(f Fault) { mu.Lock(); seen = append(seen, f); mu.Unlock() })
	cA := &http.Client{Transport: trA}
	cB := &http.Client{Transport: trB}

	post(t, cA, srv.URL, "a1")
	post(t, cB, srv.URL, "b1")
	post(t, cA, srv.URL, "a2") // fires on A
	post(t, cB, srv.URL, "b2") // fires on B
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("hook saw %d faults, want 2: %v", len(seen), seen)
	}
	for _, f := range seen {
		if f.Kind != FaultDrop || f.Ordinal != 2 {
			t.Errorf("fault = %+v, want drop at ordinal 2", f)
		}
	}
}

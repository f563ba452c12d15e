package guard

import (
	"testing"
	"time"
)

func TestRetryAllowed(t *testing.T) {
	cases := []struct {
		name    string
		policy  Retry
		attempt int
		allowed bool
	}{
		{"zero-policy first attempt", Retry{}, 1, true},
		{"zero-policy no retry", Retry{}, 2, false},
		{"negative attempts means one", Retry{Attempts: -3}, 2, false},
		{"grid retry allows second", GridRetry(), 2, true},
		{"grid retry forbids third", GridRetry(), 3, false},
		{"attempt zero never allowed", GridRetry(), 0, false},
		{"five attempts, fifth ok", Retry{Attempts: 5}, 5, true},
		{"five attempts, sixth not", Retry{Attempts: 5}, 6, false},
	}
	for _, c := range cases {
		if got := c.policy.Allowed(c.attempt); got != c.allowed {
			t.Errorf("%s: Allowed(%d) = %v, want %v", c.name, c.attempt, got, c.allowed)
		}
	}
}

func TestRetryDelaySchedule(t *testing.T) {
	cases := []struct {
		name    string
		policy  Retry
		attempt int
		want    time.Duration
	}{
		{"first attempt never waits", Retry{Base: time.Second}, 1, 0},
		{"no base, no delay", Retry{Attempts: 4}, 3, 0},
		{"second attempt waits base", Retry{Base: 100 * time.Millisecond}, 2, 100 * time.Millisecond},
		{"third attempt doubles", Retry{Base: 100 * time.Millisecond}, 3, 200 * time.Millisecond},
		{"fourth attempt doubles again", Retry{Base: 100 * time.Millisecond}, 4, 400 * time.Millisecond},
		{"cap bounds growth", Retry{Base: 100 * time.Millisecond, Cap: 250 * time.Millisecond}, 4, 250 * time.Millisecond},
		{"cap below base clamps", Retry{Base: time.Second, Cap: time.Millisecond}, 2, time.Millisecond},
	}
	for _, c := range cases {
		if got := c.policy.Delay(7, c.attempt); got != c.want {
			t.Errorf("%s: Delay(7, %d) = %v, want %v", c.name, c.attempt, got, c.want)
		}
	}
}

func TestRetryJitterDeterministicAndBounded(t *testing.T) {
	p := Retry{Attempts: 5, Base: 100 * time.Millisecond, Cap: time.Second, Seed: 42}
	for attempt := 2; attempt <= 5; attempt++ {
		for key := uint64(0); key < 50; key++ {
			base := Retry{Attempts: p.Attempts, Base: p.Base, Cap: p.Cap}.Delay(key, attempt)
			d1 := p.Delay(key, attempt)
			d2 := p.Delay(key, attempt)
			if d1 != d2 {
				t.Fatalf("Delay(%d, %d) not deterministic: %v then %v", key, attempt, d1, d2)
			}
			if d1 < base || d1 > base+base/2+1 {
				t.Fatalf("Delay(%d, %d) = %v outside [base, 1.5*base] around %v", key, attempt, d1, base)
			}
		}
	}
	// Different keys must not all share one schedule (jitter decorrelates).
	same := true
	first := p.Delay(0, 2)
	for key := uint64(1); key < 20; key++ {
		if p.Delay(key, 2) != first {
			same = false
			break
		}
	}
	if same {
		t.Error("jitter identical across 20 keys; expected decorrelated delays")
	}
}

func TestEscalate(t *testing.T) {
	cases := []struct {
		v       int64
		attempt int
		want    int64
	}{
		{100, 0, 100},
		{100, 1, 200},
		{100, 3, 800},
		{0, 5, 0},
		{1 << 62, 1, 1 << 62},       // saturates
		{(1 << 62) - 1, 4, 1 << 62}, // saturates mid-way
		{3, 61, 1 << 62},            // deep escalation cannot overflow
	}
	for _, c := range cases {
		if got := Escalate(c.v, c.attempt); got != c.want {
			t.Errorf("Escalate(%d, %d) = %d, want %d", c.v, c.attempt, got, c.want)
		}
	}
}

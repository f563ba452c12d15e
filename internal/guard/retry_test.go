package guard

import "testing"

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

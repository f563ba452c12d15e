package guard

import (
	"time"

	"repro/internal/seeded"
)

// Retry is the deterministic retry/backoff policy shared by the grid
// runners (the watchdog doubled-budget retry) and the distributed
// experiment service (lease redispatch backoff). Two properties matter:
//
//   - Escalation is exact doubling (Escalate), so a retried simulation is
//     reproducible from (seed, attempt) alone — no wall-clock leaks into
//     the budget a cell runs under.
//   - Delays are capped exponential with seeded jitter (seeded.Mix, the
//     chaos seeding discipline), so a redispatch schedule replays
//     byte-identically for a given (Seed, key) and never synchronizes
//     retry storms across cells.
type Retry struct {
	// Attempts is the maximum number of attempts, including the first;
	// values <= 0 mean one attempt (no retry).
	Attempts int
	// Base is the delay before the second attempt; attempt n waits
	// Base << (n-2), capped at Cap. A zero Base disables delays (the
	// in-process grid retry re-runs immediately).
	Base time.Duration
	// Cap bounds the exponential growth; zero means "no cap".
	Cap time.Duration
	// Seed selects the jitter stream; zero disables jitter.
	Seed int64
}

// GridRetry is the policy the experiment grids have used since the
// watchdog retry was introduced: one immediate re-run at a doubled
// budget, nothing else.
func GridRetry() Retry { return Retry{Attempts: 2} }

// Allowed reports whether attempt (1-based) is within the policy's
// budget: Allowed(1) is always true, Allowed(Attempts+1) never.
func (r Retry) Allowed(attempt int) bool {
	max := r.Attempts
	if max <= 0 {
		max = 1
	}
	return attempt >= 1 && attempt <= max
}

// Delay returns the backoff to wait before running attempt (1-based;
// the first attempt never waits). The base schedule is Base doubled per
// retry and capped at Cap; jitter adds up to half the computed delay,
// drawn deterministically from seeded.Mix of (Seed, key, attempt) so a
// given (policy, key) sequence replays exactly.
func (r Retry) Delay(key uint64, attempt int) time.Duration {
	if attempt <= 1 || r.Base <= 0 {
		return 0
	}
	d := time.Duration(Escalate(int64(r.Base), attempt-2))
	if r.Cap > 0 && d > r.Cap {
		d = r.Cap
	}
	if r.Seed != 0 && d > 0 {
		span := uint64(d)/2 + 1
		d += time.Duration(seeded.Mix(uint64(r.Seed)+key*0x9E3779B97F4A7C15+uint64(attempt)) % span)
	}
	return d
}

// Escalate doubles v attempt times (attempt 0 returns v unchanged),
// saturating instead of overflowing — the budget-escalation rule behind
// the watchdog retry (window × 2) and the cell-timeout retry.
func Escalate(v int64, attempt int) int64 {
	for ; attempt > 0 && v > 0; attempt-- {
		if v >= 1<<61 {
			return 1 << 62
		}
		v <<= 1
	}
	return v
}

package guard

// Retry is the attempt bound shared by the grid runners (the watchdog
// doubled-budget retry) and the distributed experiment service (how many
// leases a cell may consume). A retried simulation escalates its budget
// by exact doubling (Escalate), so it is reproducible from (seed,
// attempt) alone — no wall-clock leaks into the budget a cell runs under.
type Retry struct {
	// Attempts is the maximum number of attempts, including the first;
	// values <= 0 mean one attempt (no retry).
	Attempts int
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

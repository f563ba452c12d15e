package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/guard"
)

// cellGuard resolves the run-level hardening options for the cell with
// DeriveSeed key cell: a non-zero chaos seed is decorrelated per cell, so
// each cell perturbs a private stream and results stay independent of
// execution order.
func cellGuard(o guard.Options, cell int) guard.Options {
	if o.ChaosSeed != 0 {
		o.ChaosSeed = DeriveSeed(o.ChaosSeed, cell)
	}
	return o
}

type budgetKey struct{}

// withCellBudget gives the cell attempt ctx runs its wall-clock budget
// (-cell-timeout) for the given 1-based attempt: the budget doubles per
// retry, the same escalation discipline as the watchdog window. A
// non-positive timeout returns ctx unchanged.
func withCellBudget(ctx context.Context, timeout time.Duration, attempt int) context.Context {
	if timeout <= 0 {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, time.Duration(guard.Escalate(int64(timeout), attempt-1)))
}

// budgeted runs sim, one simulation of a cell, under the wall-clock
// budget ctx carries, if any. The budget bounds the simulation alone: a
// cell that waits on a run's memo for another's simulation spends none
// of it, and a cell the memo serves simulated nothing. If the budget
// runs out while ctx is still live, the cancellation becomes a typed
// guard.OpDeadline failure — a diagnosed cell FAIL, retried once at a
// doubled budget and then counted against the exit code — rather than a
// SKIP. A genuine cancellation of ctx (SIGINT drain, first-error cancel)
// passes through untouched.
func budgeted[T any](ctx context.Context, sim func(ctx context.Context) (T, error)) (T, error) {
	d, _ := ctx.Value(budgetKey{}).(time.Duration)
	if d <= 0 {
		return sim(ctx)
	}
	sctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	v, err := sim(sctx)
	if err == nil || !guard.IsCancellation(err) || ctx.Err() != nil || sctx.Err() != context.DeadlineExceeded {
		return v, err
	}
	de := guard.NewSimError(guard.OpDeadline, fmt.Errorf("cell exceeded its %v wall-clock budget", d))
	if se := guard.AsSimError(err); se != nil {
		de = de.At(se.Cycle)
	}
	return v, de
}

// failureStrings renders a cell failure: the one-line error, plus the
// structured diagnostic when the error chain carries one (watchdog trips
// and invariant violations do).
func failureStrings(err error) (failure, diagnostic string) {
	if err == nil {
		return "", ""
	}
	failure = err.Error()
	if se := guard.AsSimError(err); se != nil && se.Diag != nil {
		diagnostic = se.Diag.String()
	}
	return failure, diagnostic
}

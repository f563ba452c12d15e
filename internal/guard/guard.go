// Package guard is the simulation-hardening layer: typed simulation
// errors, a liveness watchdog, structured diagnostics, invariant-check
// gating, and deterministic fault injection (chaos mode).
//
// The package is a near-leaf — it imports only the standard library and
// internal/snapshot (for the Codec its checkpointable parts are visited
// through) — so every simulation layer (core, cache, coherence, mp,
// workstation, experiments) can depend on it without cycles. The
// simulators produce guard values (SimError, Diagnostic, ProcState);
// guard itself never steps a simulation.
package guard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
)

// Op strings shared by every runner, so grid drivers can classify
// failures (retry a watchdog trip, skip a canceled cell) without string
// matching at each call site.
const (
	// OpWatchdog marks a liveness-watchdog trip.
	OpWatchdog = "guard.watchdog"
	// OpCanceled marks a run stopped by context cancellation (first-error
	// cancel or a SIGINT/SIGTERM drain); the wrapped cause is ctx.Err(),
	// so errors.Is(err, context.Canceled) still holds.
	OpCanceled = "guard.canceled"
	// OpDeadline marks a cell that exceeded its per-cell wall-clock
	// budget (-cell-timeout). Unlike OpCanceled it is a *cell failure*:
	// the grid records FAIL and exits non-zero, exactly as for a
	// watchdog trip.
	OpDeadline = "guard.deadline"
)

// IsWatchdogTrip reports whether err (anywhere in its chain) is a
// SimError raised by the liveness watchdog — the one failure class the
// grids retry at an escalated budget, since a trip can be a workload
// that is merely slower than the window, not wedged.
func IsWatchdogTrip(err error) bool {
	se := AsSimError(err)
	return se != nil && se.Op == OpWatchdog
}

// IsCancellation reports whether err is a context cancellation (or
// deadline) artifact rather than a simulation failure. Canceled cells
// are skipped, not failed: they carry no diagnosis of the simulated
// machine. A per-cell deadline reclassified as OpDeadline is NOT a
// cancellation — it is a diagnosed cell failure.
func IsCancellation(err error) bool {
	if IsDeadline(err) {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IsDeadline reports whether err (anywhere in its chain) is a SimError
// raised by a per-cell wall-clock deadline.
func IsDeadline(err error) bool {
	se := AsSimError(err)
	return se != nil && se.Op == OpDeadline
}

// IsBudgetTrip reports whether err is one of the two escalatable budget
// failures — a liveness-watchdog trip or a per-cell wall-clock deadline.
// These are the failures the grids retry once at a doubled budget: both
// can mean "slower than the window", not "wrong".
func IsBudgetTrip(err error) bool { return IsWatchdogTrip(err) || IsDeadline(err) }

// SimError is a typed simulation failure carrying the machine context a
// bare panic(err) loses: what was happening, at which cycle, on which
// processor/context, at which PC, and — when the failure was detected by
// the watchdog or an invariant checker — a full structured Diagnostic.
//
// Fields that do not apply are negative (Cycle, Proc, Ctx, PC) or zero
// (Addr with HasAddr false), and the renderer omits them.
type SimError struct {
	// Op names the failing operation, e.g. "core.execute" or
	// "guard.watchdog".
	Op    string
	Cycle int64
	Proc  int
	Ctx   int
	PC    int
	// Addr is the memory address involved, when one is (HasAddr).
	Addr    uint32
	HasAddr bool
	// Err is the underlying cause.
	Err error
	// Diag, when non-nil, is the full machine-state dump taken at the
	// failure. Renderers print it separately from Error(), which stays a
	// single line.
	Diag *Diagnostic
}

// NewSimError returns a SimError with every location field unset.
func NewSimError(op string, err error) *SimError {
	return &SimError{Op: op, Cycle: -1, Proc: -1, Ctx: -1, PC: -1, Err: err}
}

// At sets the cycle and returns the error (builder-style).
func (e *SimError) At(cycle int64) *SimError { e.Cycle = cycle; return e }

// On sets processor/context/PC attribution and returns the error.
func (e *SimError) On(proc, ctx, pc int) *SimError {
	e.Proc, e.Ctx, e.PC = proc, ctx, pc
	return e
}

// WithAddr sets the involved memory address and returns the error.
func (e *SimError) WithAddr(addr uint32) *SimError {
	e.Addr, e.HasAddr = addr, true
	return e
}

// WithDiag attaches a diagnostic and returns the error.
func (e *SimError) WithDiag(d *Diagnostic) *SimError { e.Diag = d; return e }

// Error renders a single line: op, location context, cause.
func (e *SimError) Error() string {
	var b strings.Builder
	b.WriteString(e.Op)
	if e.Cycle >= 0 {
		fmt.Fprintf(&b, " cycle=%d", e.Cycle)
	}
	if e.Proc >= 0 {
		fmt.Fprintf(&b, " proc=%d", e.Proc)
	}
	if e.Ctx >= 0 {
		fmt.Fprintf(&b, " ctx=%d", e.Ctx)
	}
	if e.PC >= 0 {
		fmt.Fprintf(&b, " pc=%d", e.PC)
	}
	if e.HasAddr {
		fmt.Fprintf(&b, " addr=%#x", e.Addr)
	}
	if e.Err != nil {
		b.WriteString(": ")
		b.WriteString(e.Err.Error())
	}
	return b.String()
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *SimError) Unwrap() error { return e.Err }

// AsSimError extracts a SimError from an error chain, or nil.
func AsSimError(err error) *SimError {
	var se *SimError
	if errors.As(err, &se) {
		return se
	}
	return nil
}

// envChecksOnce caches the GUARD_CHECKS environment probe: the variable is
// read once per process, so toggling it mid-run has no effect (tests that
// need both settings run in separate processes, as scripts/check.sh does).
var envChecksOnce = sync.OnceValue(func() bool {
	return os.Getenv("GUARD_CHECKS") == "1"
})

// EnvChecks reports whether GUARD_CHECKS=1 is set in the environment —
// the switch scripts/check.sh uses to run the whole test suite with
// invariant checking on.
func EnvChecks() bool { return envChecksOnce() }

// DefaultCheckEvery is the invariant-check and watchdog-poll cadence used
// when Options.CheckEvery is zero.
const DefaultCheckEvery = 4096

// DefaultChaosSkew is the maximum perturbation, in cycles, chaos mode adds
// to each memory or network latency when Options.ChaosSkew is zero.
const DefaultChaosSkew = 24

// Options is the hardening configuration embedded in the simulator
// configs (mp.Config.Guard, workstation.Config.Guard) and set from the
// -watchdog, -check-invariants and -chaos command-line flags.
type Options struct {
	// WatchdogWindow is the liveness window in cycles: if no context
	// machine-wide retires a useful (non-synchronization) instruction
	// for this many cycles, the run is declared live/deadlocked and
	// aborted with a diagnostic. Zero selects the runner's default
	// policy (the multiprocessor uses LimitCycles/20; the workstation
	// leaves it off, since its runs are cycle-bounded by construction);
	// negative disables the watchdog outright.
	WatchdogWindow int64

	// CheckInvariants runs the coherence/cache/pipeline invariant
	// checkers every CheckEvery cycles. Off by default (the checkers
	// walk whole directories); GUARD_CHECKS=1 in the environment turns
	// them on regardless, which is how the test suite enables them.
	CheckInvariants bool

	// CheckEvery is the watchdog-poll and invariant-check cadence in
	// cycles; zero selects DefaultCheckEvery.
	CheckEvery int64

	// ChaosSeed, when non-zero, enables fault injection: memory and
	// network latencies are perturbed by a deterministic PRNG seeded
	// with this value. Timing faults must never change architectural
	// results; tests assert final memory and register state are
	// byte-identical to an unperturbed run.
	ChaosSeed int64

	// ChaosSkew bounds the perturbation added to each latency, in
	// cycles; zero selects DefaultChaosSkew.
	ChaosSkew int64
}

// InvariantsOn resolves the invariant-check switch against the
// GUARD_CHECKS environment gate.
func (o Options) InvariantsOn() bool { return o.CheckInvariants || EnvChecks() }

// CheckCadence resolves CheckEvery against its default.
func (o Options) CheckCadence() int64 {
	if o.CheckEvery > 0 {
		return o.CheckEvery
	}
	return DefaultCheckEvery
}

// ResolveWatchdog resolves WatchdogWindow against a runner's default
// policy: zero maps to def, negative to disabled (0).
func (o Options) ResolveWatchdog(def int64) int64 {
	switch {
	case o.WatchdogWindow > 0:
		return o.WatchdogWindow
	case o.WatchdogWindow < 0:
		return 0
	default:
		return def
	}
}

// NewChaos builds the chaos perturber selected by the options, or nil
// when chaos mode is off.
func (o Options) NewChaos() *Chaos {
	if o.ChaosSeed == 0 {
		return nil
	}
	skew := o.ChaosSkew
	if skew <= 0 {
		skew = DefaultChaosSkew
	}
	return NewChaos(o.ChaosSeed, skew)
}

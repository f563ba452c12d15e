package guard

import (
	"fmt"

	"repro/internal/seeded"
)

// Crash faults for the distributed experiment service's chaos harness. A
// plan of these scripts *process-level* failures — a worker dying
// mid-cell, dying after computing a result but before acknowledging it,
// or silently stalling its heartbeats — the way the Chaos injector
// scripts latency failures: deterministically, so every schedule the
// harness exercises can be replayed exactly. The service's correctness
// bar under any plan is byte-identity: the distributed run's tables and
// JSON must match a single-process run of the same grid.

// FaultKind classifies one injected process failure.
type FaultKind int

const (
	// FaultNone: execute the cell normally.
	FaultNone FaultKind = iota
	// FaultDieMidCell: the worker dies while the cell is simulating —
	// the lease expires with no result ever produced.
	FaultDieMidCell
	// FaultDieBeforeAck: the worker finishes the simulation but dies
	// before reporting the result — compute is lost, the lease expires,
	// and the cell is redispatched.
	FaultDieBeforeAck
	// FaultHeartbeatStall: the worker stops heartbeating long enough for
	// its leases to expire, but keeps running and reports its result
	// late — exercising the coordinator's duplicate-result dedup.
	FaultHeartbeatStall
)

// String names the fault for logs and flag values.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDieMidCell:
		return "die-mid-cell"
	case FaultDieBeforeAck:
		return "die-before-ack"
	case FaultHeartbeatStall:
		return "heartbeat-stall"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// ProcessFaults is the process-fault vocabulary. A worker counts its cell
// executions (1-based, across all leases it runs) and injects the kind a
// seeded.Plan[FaultKind] schedules at that ordinal; the command-line form
// is ProcessFaults.Parse's, e.g. "die-mid-cell@3" or
// "heartbeat-stall@2,die-before-ack@5".
var ProcessFaults = seeded.Layer[FaultKind]{
	Kinds:      []FaultKind{FaultDieMidCell, FaultDieBeforeAck, FaultHeartbeatStall},
	OneCounter: true,
}

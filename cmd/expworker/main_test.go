package main

import (
	"testing"

	"repro/internal/experiments"
)

// A fault plan that cannot fire as written is a usage error, reported
// before the worker contacts anything: the coordinator URL here is never
// dialled.
func TestUnfireablePlanIsAUsageError(t *testing.T) {
	for _, fault := range []string{
		"die-mid-cell@3,heartbeat-stall@3", // one execution, two faults
		"die-mid-cell@1,die-mid-cell@4",    // a dead worker does not die again
		"die-mid-cell",
		"explode@2",
	} {
		if code := run([]string{"-coordinator", "http://127.0.0.1:1", "-fault", fault}); code != experiments.ExitUsage {
			t.Errorf("-fault %s: exit %d, want %d", fault, code, experiments.ExitUsage)
		}
	}
}

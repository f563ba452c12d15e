package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/splash"
)

// chaosAttempt runs cell 1 (interleaved/2) of a one-app multiprocessor
// grid under chaos seed 20260805 on app, which may be a substitute for
// the named subject.
func chaosAttempt(t *testing.T, subject string, app splash.App) (*MPCellRecord, error) {
	t.Helper()
	cfg := QuickMPConfig()
	cfg.Processors = 2
	cfg.Apps = []string{subject}
	cfg.Schemes = []core.Scheme{core.Interleaved}
	cfg.ContextCounts = []int{2}
	cfg.Guard.ChaosSeed = 20260805
	g, err := multiprocessorGrid.bind(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mpAttempt(context.Background(), cfg, app, g.attemptOf(1, 1))
}

// Under a chaos seed a race-free application's cell also runs
// unperturbed, and passes only when the final memory is identical; the
// check adds nothing to the record.
func TestChaosCellOfRaceFreeAppPasses(t *testing.T) {
	ocean, err := splash.Lookup("ocean")
	if err != nil {
		t.Fatal(err)
	}
	checked, err := chaosAttempt(t, "ocean", ocean)
	if err != nil {
		t.Fatalf("ocean under chaos: %v", err)
	}
	unchecked := ocean
	unchecked.Racy = true // exempt: the same cell without the reference run
	plain, err := chaosAttempt(t, "ocean", unchecked)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(checked, plain) {
		t.Error("the chaos check changed the cell's record")
	}
}

// A non-racy application whose memory depends on timing — mp3d with its
// Racy mark cleared — fails the cell with a typed error naming both
// hashes; marked Racy, the same cell is exempt and passes.
func TestChaosCellMemoryDivergenceFails(t *testing.T) {
	mp3d, err := splash.Lookup("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chaosAttempt(t, "mp3d", mp3d); err != nil {
		t.Fatalf("racy mp3d is exempt from the chaos check, got %v", err)
	}
	unmarked := mp3d
	unmarked.Racy = false
	_, err = chaosAttempt(t, "mp3d", unmarked)
	se := guard.AsSimError(err)
	if se == nil || se.Op != OpChaosDivergence {
		t.Fatalf("mp3d with Racy cleared: got %v, want a %s SimError", err, OpChaosDivergence)
	}
	if n := strings.Count(err.Error(), "0x"); n < 2 {
		t.Errorf("divergence error %q names %d hashes, want both", err, n)
	}
	if guard.IsBudgetTrip(err) || guard.IsCancellation(err) {
		t.Errorf("divergence %v would be retried or skipped; it must fail the cell", err)
	}
}

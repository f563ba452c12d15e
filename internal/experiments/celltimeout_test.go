package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workstation"
)

// A cell that cannot finish inside its wall-clock budget must fail as a
// diagnosed cell (typed deadline, FAIL in the table, non-zero exit), not
// vanish as a SKIP — and the retry discipline matches the watchdog's:
// one re-run at a doubled budget before giving up.
func TestCellTimeoutFailsCell(t *testing.T) {
	cfg := journalTestConfig()
	cfg.CellTimeout = time.Nanosecond // unmeetable: every attempt expires

	rec, err := RunUniCell(context.Background(), cfg, 0)
	if err != nil {
		t.Fatalf("RunUniCell: %v (a deadline is a cell failure, not an error)", err)
	}
	if !rec.Failed {
		t.Fatal("cell beat a 1ns wall-clock budget")
	}
	if !rec.Retried {
		t.Error("deadline trip was not retried at a doubled budget")
	}
	if !strings.Contains(rec.Failure, "wall-clock budget") {
		t.Errorf("failure %q does not name the wall-clock budget", rec.Failure)
	}

	// The whole grid degrades gracefully: failures counted, run completes.
	res, err := RunUniprocessor(cfg)
	if err != nil {
		t.Fatalf("RunUniprocessor: %v", err)
	}
	if res.Failures != len(res.Cells) {
		t.Errorf("%d of %d cells failed; a 1ns budget should fail all", res.Failures, len(res.Cells))
	}
	if res.Skipped != 0 {
		t.Errorf("%d cells skipped; deadlines are failures, not skips", res.Skipped)
	}
}

func TestCellTimeoutFailsMPCell(t *testing.T) {
	cfg := QuickMPConfig()
	cfg.Apps = []string{"ocean"}
	cfg.CellTimeout = time.Nanosecond

	rec, err := RunMPCell(context.Background(), cfg, 0)
	if err != nil {
		t.Fatalf("RunMPCell: %v (a deadline is a cell failure, not an error)", err)
	}
	if !rec.Failed || !rec.Retried {
		t.Fatalf("want failed+retried deadline record, got %+v", rec)
	}
	if !strings.Contains(rec.Failure, "wall-clock budget") {
		t.Errorf("failure %q does not name the wall-clock budget", rec.Failure)
	}
}

// A cell's wall-clock budget bounds its own simulation, never a wait.
// In a run, a grid cell that asks the memo for a cell another section is
// simulating waits for as long as that takes, keeps its -j slot, and
// gets the leader's result, even when the wait outlasts both of its
// attempts' budgets.
func TestCellTimeoutSpendsNothingWaiting(t *testing.T) {
	cfg := QuickUniConfig()
	cfg.Workloads = []string{"DC"}
	cfg.Schemes = []core.Scheme{core.Interleaved}
	cfg.ContextCounts = []int{2}
	cfg.CellTimeout = 50 * time.Millisecond

	// The grid's interleaved/2 cell, as uniAttempt seeds it.
	w := cfg.cellConfig(core.Interleaved, 2)
	w.Guard, w.Obs = cfg.Guard, cfg.Obs
	w = seedWorkstation(cfg.Seed, "DC", w)
	kernels, err := ResolveWorkload("DC")
	if err != nil {
		t.Fatal(err)
	}
	want, err := workstation.RunCtx(context.Background(), kernels, w)
	if err != nil {
		t.Fatal(err)
	}

	// Another section leads the cell and holds it for four budgets: past
	// the first attempt's and the doubled retry's.
	ctx := NewRun(2).Context(context.Background())
	led, release := make(chan struct{}), make(chan struct{})
	go memo(ctx, workstationCell{"DC", w}, func(context.Context) (*workstation.Result, error) {
		close(led)
		<-release
		return want, nil
	})
	<-led
	time.AfterFunc(4*cfg.CellTimeout, func() { close(release) })

	before := Cells()
	res, err := workstationGrid.run(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shared := Cells().Sub(before).Shared; shared != 1 {
		t.Fatalf("the grid shared %d cells with the leader, want 1", shared)
	}
	c, ok := res.Cell("DC", core.Interleaved, 2)
	if !ok {
		t.Fatal("no DC interleaved/2 cell")
	}
	if c.Failed {
		t.Fatalf("the waiting cell failed: %s", c.Failure)
	}
	if c.Busy != want.Throughput {
		t.Errorf("the waiting cell has busy %v, the leader's result %v", c.Busy, want.Throughput)
	}
}

// A generous budget must be invisible: identical records to an unbounded
// run, and no trace of the timeout in the JSON (it is wall-clock policy,
// not simulated behavior, so it must not perturb fingerprints).
func TestCellTimeoutGenerousBudgetIsInvisible(t *testing.T) {
	cfg := journalTestConfig()
	ref, err := RunUniCell(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CellTimeout = time.Hour
	got, err := RunUniCell(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	gotJSON, _ := json.Marshal(got)
	if string(refJSON) != string(gotJSON) {
		t.Errorf("a generous cell timeout changed the record:\n%s\nvs\n%s", gotJSON, refJSON)
	}

	noTO := journalTestConfig()
	withTO := journalTestConfig()
	withTO.CellTimeout = time.Hour
	if NewFingerprint(&noTO, nil, nil).Hash() != NewFingerprint(&withTO, nil, nil).Hash() {
		t.Error("CellTimeout leaked into the config fingerprint")
	}
}

// The per-cell helpers must agree with the grid runner cell-for-cell:
// the distributed service runs cells through RunUniCell/RunMPCell and
// assembles with AssembleUni/AssembleMP, and byte-identity with a
// single-process run rests on this equivalence.
func TestCellHelpersMatchGridRunner(t *testing.T) {
	cfg := journalTestConfig()
	ref, err := RunUniprocessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := UniGridSize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ref.Cells) {
		t.Fatalf("UniGridSize = %d, grid runner produced %d cells", n, len(ref.Cells))
	}
	recs := make([]*UniCellRecord, n)
	for i := range recs {
		if recs[i], err = RunUniCell(context.Background(), cfg, i); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	got, err := AssembleUni(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	gotJSON, _ := json.Marshal(got)
	if string(refJSON) != string(gotJSON) {
		t.Error("cell-by-cell run assembled differently from the grid runner")
	}
	if FormatTable7(got) != FormatTable7(ref) {
		t.Error("cell-by-cell Table 7 differs from the grid runner's")
	}

	if _, err := RunUniCell(context.Background(), cfg, n); err == nil {
		t.Error("out-of-range cell index did not error")
	}
}

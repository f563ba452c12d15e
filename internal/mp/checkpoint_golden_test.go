package mp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/guard"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// TestCheckpointGolden pins whole-machine checkpoint bytes (container
// length and StateHash, and the payload's StateHash) of a 4-node,
// 2-context run with chaos on and the default watchdog armed (and
// primed: the guard cadence is shortened). The payload hash is the value
// the hand-mirrored per-layer codecs wrote at codec version 1; see the
// workstation test of the same name. Regenerate (only with a codec
// version bump) with UPDATE_CKPT_GOLDEN=1.
func TestCheckpointGolden(t *testing.T) {
	p := counterProgram(10, prog.YieldBackoff)
	cfg := DefaultConfig(core.Interleaved, 2)
	cfg.Processors = 4
	cfg.LimitCycles = 5_000_000
	cfg.Guard = guard.Options{ChaosSeed: 42, ChaosSkew: 2, CheckEvery: 256}
	ckpt, err := CheckpointAtCtx(context.Background(), p, cfg, 40*engine.BlockCycles, "golden")
	if err != nil {
		t.Fatal(err)
	}
	// The container was sealed in place around the state walk; wrapping
	// its payload with Encode must give the same bytes.
	img, err := snapshot.Open(ckpt, Kind, "golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, snapshot.Encode(Kind, "golden", img.Payload())) {
		t.Error("container sealed in place differs from Encode of its payload")
	}
	got := fmt.Sprintf("%v/%dx%d len=%d hash=%#016x payload=%#016x\n", cfg.Scheme, cfg.Processors, cfg.Contexts,
		len(ckpt), snapshot.StateHash(ckpt), snapshot.StateHash(img.Payload()))

	path := filepath.Join("testdata", "checkpoint.golden")
	if os.Getenv("UPDATE_CKPT_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_CKPT_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("checkpoint bytes moved:\n got:\n%swant:\n%s", got, want)
	}
}

package workstation

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// TestCheckpointGolden pins whole-machine checkpoint bytes (container
// length and StateHash) to the values the hand-mirrored per-layer codecs
// wrote at codec version 1. Persisted -checkpoint-dir files must stay
// loadable while snapshot.Version does not move, so any rewrite of the
// state walks has to reproduce these bytes exactly. Chaos is on and the
// watchdog is armed so both optional blocks are in the payload.
// Regenerate (only with a codec version bump) with UPDATE_CKPT_GOLDEN=1.
func TestCheckpointGolden(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")
	var got string
	for _, tc := range []struct {
		scheme core.Scheme
		ctxs   int
	}{
		{core.Interleaved, 4},
		{core.Blocked, 2},
	} {
		cfg := forkConfig(tc.scheme, tc.ctxs, true)
		cfg.Guard.WatchdogWindow = 50_000
		ckpt, err := CheckpointAtCtx(context.Background(), ks, cfg, 3, "golden")
		if err != nil {
			t.Fatal(err)
		}
		got += fmt.Sprintf("%v/%d len=%d hash=%#016x\n", tc.scheme, tc.ctxs, len(ckpt), snapshot.StateHash(ckpt))
		sealedEqualsEncoded(t, ckpt)
	}

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

// sealedEqualsEncoded checks the two ways of building a container
// against each other: ckpt was sealed in place around the state walk,
// and wrapping its payload with Encode must give the same bytes.
func sealedEqualsEncoded(t *testing.T, ckpt []byte) {
	t.Helper()
	img, err := snapshot.Open(ckpt, Kind, "golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, snapshot.Encode(Kind, "golden", img.Payload())) {
		t.Error("container sealed in place differs from Encode of its payload")
	}
}

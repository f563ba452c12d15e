package workstation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// recycleOverrides alternate a fork group's measure phase, so a fork
// that takes an earlier fork's storage takes it from a different run:
// a byte the restore failed to overwrite would show in the result.
var recycleOverrides = []MeasureOverrides{
	{BlockedFlushCost: 10}, {BlockedFlushCost: 1}, {BlockedFlushCost: 10},
	{MSHRs: 1}, {MSHRs: 8}, {MSHRs: 1},
}

func resultJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestForksRecycleStorage runs one fork group at -j 1 and at -j 8 (run
// it with -race): four rounds of the six alternating cells, all forked
// from one image. From the second fork on, a fork runs on the memory
// pages and cache arrays a finished fork left. Every result must be
// byte-identical to the same cell forked into a fresh machine (ResumeCtx
// opens an image of its own, which holds no spares) and to its run from
// scratch.
func TestForksRecycleStorage(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")
	ctx := context.Background()
	prefix := forkConfig(core.Blocked, 4, true)
	ckpt, err := CheckpointWarmupCtx(ctx, ks, prefix, "fp")
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(recycleOverrides))
	for i, m := range recycleOverrides {
		cfg := prefix
		cfg.Measure = m
		scratch, err := Run(ks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ResumeCtx(ctx, ks, cfg, ckpt, "fp")
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultJSON(t, scratch)
		if !bytes.Equal(resultJSON(t, fresh), want[i]) {
			t.Fatalf("cell %d (%+v): a fork into a fresh machine differs from scratch", i, m)
		}
	}

	for _, j := range []int{1, 8} {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			img, err := snapshot.Open(ckpt, Kind, "fp")
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 4
			got := make([][]byte, rounds*len(recycleOverrides))
			next := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < j; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						cfg := prefix
						cfg.Measure = recycleOverrides[i%len(recycleOverrides)]
						r, err := ResumeImageCtx(ctx, ks, cfg, img)
						if err != nil {
							t.Errorf("fork %d: %v", i, err)
							continue
						}
						got[i] = resultJSON(t, r)
					}
				}()
			}
			for i := range got {
				next <- i
			}
			close(next)
			wg.Wait()
			for i, g := range got {
				if k := i % len(recycleOverrides); !bytes.Equal(g, want[k]) {
					t.Errorf("fork %d (%+v) differs from scratch", i, recycleOverrides[k])
				}
			}
			// Every fork handed its storage back and at most j ran at
			// once, so at most j sets were ever allocated: at -j 1 every
			// fork after the first ran on the one before's.
			spares := 0
			for img.Spare() != nil {
				spares++
			}
			if spares < 1 || spares > j {
				t.Errorf("image holds %d spares after %d forks at -j %d, want 1..%d", spares, len(got), j, j)
			}
		})
	}
}

// TestSecondForkAllocatesLittle bounds what the second fork of a group
// allocates: less than a quarter of the checkpoint's payload. A fork into
// a fresh machine allocates about the payload's size again — the memory
// pages and cache arrays the restore fills — and the second fork takes
// those from the first.
func TestSecondForkAllocatesLittle(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")
	ctx := context.Background()
	prefix := forkConfig(core.Blocked, 4, false)
	ckpt, err := CheckpointWarmupCtx(ctx, ks, prefix, "fp")
	if err != nil {
		t.Fatal(err)
	}
	img, err := snapshot.Open(ckpt, Kind, "fp")
	if err != nil {
		t.Fatal(err)
	}
	fork := func(m MeasureOverrides) {
		cfg := prefix
		cfg.Measure = m
		if _, err := ResumeImageCtx(ctx, ks, cfg, img); err != nil {
			t.Fatal(err)
		}
	}
	fork(recycleOverrides[0])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fork(recycleOverrides[1])
	runtime.ReadMemStats(&after)
	got, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(img.Payload())/4)
	t.Logf("second fork allocated %d bytes; payload %d bytes", got, len(img.Payload()))
	if got > bound {
		t.Errorf("second fork allocated %d bytes, bound %d (a quarter of the %d-byte payload)", got, bound, len(img.Payload()))
	}
}

package workstation

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/snapshot"
)

// forkConfig is a small but non-trivial run: two rotations of warm-up so
// the prefix does real work, chaos optionally enabled.
func forkConfig(s core.Scheme, n int, chaos bool) Config {
	cfg := DefaultConfig(s, n)
	cfg.OS.SliceCycles = 5_000
	cfg.WarmupRotations = 1
	cfg.MeasureRotations = 1
	if chaos {
		cfg.Guard = guard.Options{ChaosSeed: 99, ChaosSkew: 3}
	}
	return cfg
}

// TestForkEquivalence is the golden fork-vs-scratch check: for every
// scheme, with and without chaos, a run forked from a warm-up checkpoint
// must produce a Result deep-equal to the uninterrupted run.
func TestForkEquivalence(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")
	cases := []struct {
		scheme core.Scheme
		ctxs   int
	}{
		{core.Single, 1},
		{core.Blocked, 4},
		{core.BlockedFast, 4},
		{core.Interleaved, 4},
		{core.FineGrained, 4},
	}
	for _, tc := range cases {
		for _, chaos := range []bool{false, true} {
			name := tc.scheme.String()
			if chaos {
				name += "/chaos"
			}
			t.Run(name, func(t *testing.T) {
				cfg := forkConfig(tc.scheme, tc.ctxs, chaos)
				want, err := Run(ks, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ckpt, err := CheckpointWarmupCtx(context.Background(), ks, cfg, "fp")
				if err != nil {
					t.Fatal(err)
				}
				got, err := ResumeCtx(context.Background(), ks, cfg, ckpt, "fp")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("forked result differs from scratch:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestForkEquivalenceWithOverrides pins the sweep-forking contract: a
// cell that overrides a parameter at the measure boundary produces the
// same Result whether it simulates its own warm-up or forks from a
// checkpoint taken under the shared prefix configuration, and the
// override actually changes the outcome relative to the baseline.
func TestForkEquivalenceWithOverrides(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")

	prefix := forkConfig(core.Blocked, 4, false)
	ckpt, err := CheckpointWarmupCtx(context.Background(), ks, prefix, "fp")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(ks, prefix)
	if err != nil {
		t.Fatal(err)
	}

	changed := false
	for _, cost := range []int{1, 9} {
		cell := prefix
		cell.Measure.BlockedFlushCost = cost
		want, err := Run(ks, cell)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ResumeCtx(context.Background(), ks, cell, ckpt, "fp")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cost=%d: forked result differs from scratch:\n got %+v\nwant %+v", cost, got, want)
		}
		if !reflect.DeepEqual(want.Stats, base.Stats) {
			changed = true
		}
	}
	if !changed {
		t.Error("flush-cost override had no effect on any cell — override is not being applied")
	}

	cellM := prefix
	cellM.Measure.MSHRs = 1
	want, err := Run(ks, cellM)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ResumeCtx(context.Background(), ks, cellM, ckpt, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MSHR override: forked result differs from scratch")
	}
	if reflect.DeepEqual(want.Stats, base.Stats) {
		t.Error("MSHR override had no effect — override is not being applied")
	}
}

// TestConcurrentForksShareOneImage is the sweep planner's stage 2 in
// miniature: eight goroutines fork one opened image at once, each under
// its own measure-time override. A restore only reads the image, so
// every fork must equal its own scratch run, the payload must be the
// bytes it was before, and the race detector must have nothing to say
// (run with -race -count=10).
func TestConcurrentForksShareOneImage(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")
	prefix := forkConfig(core.Blocked, 4, false)
	ckpt, err := CheckpointWarmupCtx(context.Background(), ks, prefix, "fp")
	if err != nil {
		t.Fatal(err)
	}
	img, err := snapshot.Open(ckpt, Kind, "fp")
	if err != nil {
		t.Fatal(err)
	}
	before := snapshot.StateHash(img.Payload())

	cells := make([]Config, 8)
	want := make([]*Result, len(cells))
	for i := range cells {
		cells[i] = prefix
		if i%2 == 0 {
			cells[i].Measure.BlockedFlushCost = 1 + i
		} else {
			cells[i].Measure.MSHRs = i
		}
		if want[i], err = Run(ks, cells[i]); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]*Result, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := ResumeImageCtx(context.Background(), ks, cells[i], img)
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			got[i] = r
		}(i)
	}
	wg.Wait()
	for i := range cells {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("fork %d (%+v) differs from its scratch run", i, cells[i].Measure)
		}
	}
	if after := snapshot.StateHash(img.Payload()); after != before {
		t.Errorf("image payload hash moved across the forks: %#x -> %#x", before, after)
	}
}

// TestCheckpointAtRandomBoundaries is the slice-boundary property test:
// Save → Restore → run the rest must equal the uninterrupted run at any
// slice boundary, not just the warm-up boundary.
func TestCheckpointAtRandomBoundaries(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")
	rng := rand.New(rand.NewSource(7))
	for _, scheme := range []core.Scheme{core.Blocked, core.Interleaved} {
		cfg := forkConfig(scheme, 4, true)
		want, err := Run(ks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newRunner(ks, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := r.totalSlices
		for trial := 0; trial < 3; trial++ {
			at := rng.Intn(total + 1)
			ckpt, err := CheckpointAtCtx(context.Background(), ks, cfg, at, "fp")
			if err != nil {
				t.Fatal(err)
			}
			got, err := ResumeCtx(context.Background(), ks, cfg, ckpt, "fp")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: restore at slice %d/%d diverges from uninterrupted run", scheme, at, total)
			}
		}
	}
}

// TestCheckpointRejection exercises the typed-error surface: corrupted
// bytes, wrong fingerprint, and wrong machine shape must all be rejected
// before any state is trusted.
func TestCheckpointRejection(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")
	cfg := forkConfig(core.Blocked, 4, false)
	ckpt, err := CheckpointWarmupCtx(context.Background(), ks, cfg, "fp")
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), ckpt...)
	bad[len(bad)/2] ^= 0x40
	if _, err := ResumeCtx(context.Background(), ks, cfg, bad, "fp"); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("corrupted checkpoint: err = %v, want ErrCorrupt", err)
	}

	if _, err := ResumeCtx(context.Background(), ks, cfg, ckpt, "other"); !errors.Is(err, snapshot.ErrMismatch) {
		t.Errorf("wrong fingerprint: err = %v, want ErrMismatch", err)
	}

	other := forkConfig(core.Interleaved, 4, false)
	if _, err := ResumeCtx(context.Background(), ks, other, ckpt, "fp"); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("wrong scheme: err = %v, want ErrCorrupt (shape check)", err)
	}

	if _, err := ResumeCtx(context.Background(), ks, cfg, ckpt[:len(ckpt)-3], "fp"); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("truncated checkpoint: err = %v, want ErrCorrupt", err)
	}
}

// TestObsRunsNotCheckpointable: instrumented runs must refuse to
// checkpoint rather than silently truncating their metric series.
func TestObsRunsNotCheckpointable(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")
	cfg := forkConfig(core.Blocked, 4, false)
	cfg.Obs.SampleEvery = 1024
	if _, err := CheckpointWarmupCtx(context.Background(), ks, cfg, "fp"); !errors.Is(err, ErrNotCheckpointable) {
		t.Errorf("CheckpointWarmupCtx on observed run: err = %v, want ErrNotCheckpointable", err)
	}
}

package workstation

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/snapshot"
)

// The checkpoint layer's two costs, on the machine the sweep planner
// forks: the DC mix on four blocked contexts after twelve warm-up
// rotations of 2000-cycle slices (about 1 MB of payload, nearly all of
// it memory pages and cache arrays). Host noise on a shared machine
// moves a mean by ±15 %; compare minima of alternating runs.

func benchForkMachine(b *testing.B) (*runner, []apps.Kernel, Config) {
	b.Helper()
	cfg := DefaultConfig(core.Blocked, 4)
	cfg.OS.SliceCycles = 2_000
	cfg.WarmupRotations = 12
	cfg.MeasureRotations = 1
	ks := testWorkload(b, "cfft2d", "gmtry", "tomcatv", "vpenta")
	r, err := newRunner(ks, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.runSlices(context.Background(), 0, r.totalSlices); err != nil {
		b.Fatal(err)
	}
	return r, ks, cfg
}

var benchSink int

// BenchmarkForkRestore is the pure cost of a fork: the checkpoint is
// taken at the final slice, so a resume builds the machine, restores it
// and has nothing left to simulate. "image" is what a sweep cell pays
// (the group's checkpoint was opened once, elsewhere); "bytes" adds the
// container verification a one-off ResumeCtx caller pays.
func BenchmarkForkRestore(b *testing.B) {
	r, ks, cfg := benchForkMachine(b)
	at := r.totalSlices
	ckpt := snapshot.Seal(Kind, "bench", func(c snapshot.Codec) { r.state(c, &at) })
	img, err := snapshot.Open(ckpt, Kind, "bench")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("image", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := ResumeImageCtx(ctx, ks, cfg, img)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(res.Apps)
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := ResumeCtx(ctx, ks, cfg, ckpt, "bench")
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(res.Apps)
		}
	})
}

// BenchmarkCheckpointSeal is the save side: the warm machine's state
// walk plus the container around it.
func BenchmarkCheckpointSeal(b *testing.B) {
	r, _, _ := benchForkMachine(b)
	at := r.totalSlices
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ckpt := snapshot.Seal(Kind, "bench", func(c snapshot.Codec) { r.state(c, &at) })
		benchSink += len(ckpt)
	}
}

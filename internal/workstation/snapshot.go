package workstation

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/snapshot"
)

// This file checkpoints a workstation run at a slice boundary and
// resumes it in a fresh process or a forked sweep cell. Slice boundaries
// are the workstation's snapshot points: every intra-slice cadence
// (64-cycle cancellation blocks, guard chunks) restarts at each slice,
// so a run restored at a boundary replays the exact block structure of
// an uninterrupted run. The serialized state is the machine (memory,
// hierarchy, processor, threads) plus the driver's own bookkeeping: the
// scheduler-interference PRNG position, watchdog progress, context
// bindings, and the measure-window baselines.

// Kind names the workstation snapshot shape in the codec container.
const Kind = "workstation"

// sectionRun tags the driver-level block ("WSR1").
const sectionRun = 0x57535231

// ErrNotCheckpointable marks a configuration whose runs cannot be
// checkpointed: instrumented (Obs-enabled) runs carry sampling cursors
// and event traces that a fork would silently truncate, so callers must
// fall back to from-scratch simulation.
var ErrNotCheckpointable = errors.New("workstation: instrumented run cannot be checkpointed")

// CheckpointWarmupCtx simulates the warm-up prefix (every slice before
// the measure boundary) and returns the machine serialized in the codec
// container, tagged with the caller's prefix fingerprint. The sweep
// planner calls this once per cell group, opens the returned bytes once
// (snapshot.Open) and forks every cell of the group from that image via
// ResumeImageCtx.
func CheckpointWarmupCtx(ctx context.Context, kernels []apps.Kernel, cfg Config, fingerprint string) ([]byte, error) {
	r, err := newRunner(kernels, cfg)
	if err != nil {
		return nil, err
	}
	return r.checkpointAt(ctx, r.warmupSlices, fingerprint)
}

// CheckpointAtCtx simulates slices [0, atSlice) and returns the
// serialized machine. It generalizes CheckpointWarmupCtx to arbitrary
// slice boundaries for the snapshot property tests.
func CheckpointAtCtx(ctx context.Context, kernels []apps.Kernel, cfg Config, atSlice int, fingerprint string) ([]byte, error) {
	r, err := newRunner(kernels, cfg)
	if err != nil {
		return nil, err
	}
	if atSlice < 0 || atSlice > r.totalSlices {
		return nil, fmt.Errorf("workstation: checkpoint slice %d outside run of %d slices", atSlice, r.totalSlices)
	}
	return r.checkpointAt(ctx, atSlice, fingerprint)
}

func (r *runner) checkpointAt(ctx context.Context, atSlice int, fingerprint string) ([]byte, error) {
	if r.col.Proc(0) != nil {
		return nil, ErrNotCheckpointable
	}
	if err := r.runSlices(ctx, 0, atSlice); err != nil {
		return nil, err
	}
	return snapshot.Seal(Kind, fingerprint, func(c snapshot.Codec) { r.state(c, &atSlice) }), nil
}

// ResumeCtx restores a checkpoint produced by CheckpointWarmupCtx /
// CheckpointAtCtx and runs the remaining slices: snapshot.Open, which
// verifies the container and rejects a fingerprint other than the one
// the checkpoint was written with (snapshot.ErrMismatch), then
// ResumeImageCtx.
func ResumeCtx(ctx context.Context, kernels []apps.Kernel, cfg Config, data []byte, fingerprint string) (*Result, error) {
	img, err := snapshot.Open(data, Kind, fingerprint)
	if err != nil {
		return nil, err
	}
	return ResumeImageCtx(ctx, kernels, cfg, img)
}

// ResumeImageCtx restores an opened checkpoint into a freshly built
// machine for cfg and runs the remaining slices, returning the same
// Result the uninterrupted run would. It only reads img, so the forks
// of a sweep group resume one image concurrently and the container is
// verified once, by whoever opened it. cfg must describe the same
// machine shape the checkpoint was taken under — same scheme, contexts,
// slice geometry, workload — which the caller asserted by opening the
// container with the fingerprint it was written with, and the walk
// double-checks structurally. Only MeasureOverrides may differ between
// the checkpointing and resuming configurations: they apply at the
// measure boundary, inside the resumed half of the loop.
func ResumeImageCtx(ctx context.Context, kernels []apps.Kernel, cfg Config, img *snapshot.Image) (*Result, error) {
	r, err := newRunner(kernels, cfg)
	if err != nil {
		return nil, err
	}
	if r.col.Proc(0) != nil {
		return nil, ErrNotCheckpointable
	}
	rd := img.Reader()
	var atSlice int
	r.state(snapshot.Restoring(rd), &atSlice)
	if err := snapshot.Finish(rd); err != nil {
		return nil, err
	}
	if atSlice < 0 || atSlice > r.totalSlices {
		return nil, fmt.Errorf("%w: checkpoint slice %d outside run of %d slices",
			snapshot.ErrMismatch, atSlice, r.totalSlices)
	}
	if err := r.runSlices(ctx, atSlice, r.totalSlices); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// state visits the full run state as of the top of slice *atSlice
// (before that slice's scheduler invocation). Order matters for restore:
// threads first, then bindings (BindThread resets per-context
// availability), then the processor (which overwrites exactly those
// fields).
func (r *runner) state(c snapshot.Codec, atSlice *int) {
	c.Section(sectionRun)
	c.Int(atSlice)
	// Shape checks: the resuming runner must have identical slice
	// geometry or every absolute slice index computation diverges.
	c.ShapeU8("scheme", uint8(r.cfg.Scheme))
	c.ShapeI64("contexts", int64(r.cfg.Contexts))
	c.ShapeI64("slice cycles", r.cfg.OS.SliceCycles)
	c.ShapeI64("group period", int64(r.groupPeriod))
	c.ShapeI64("rotation", int64(r.rotation))
	c.ShapeI64("warm-up slices", int64(r.warmupSlices))
	c.ShapeI64("thread count", int64(len(r.threads)))

	r.rngSrc.State(c)
	r.eng.Watchdog.State(c)

	for i := range r.threads {
		c.I64(&r.measureStart[i])
		c.I64(&r.devotedStart[i])
	}
	for _, th := range r.threads {
		th.State(c)
	}
	// Context bindings as thread indices (-1 = empty slot). The binding
	// is state, not config: with one scheduling group the loop binds only
	// at slice 0, so a resumed run cannot rebuild it from the slice index.
	for ctx := 0; ctx < r.cfg.Contexts; ctx++ {
		idx := slices.Index(r.threads, r.proc.ThreadAt(ctx))
		c.Int(&idx)
		if c.Saving() || c.Err() != nil {
			continue
		}
		if idx < -1 || idx >= len(r.threads) {
			c.Expect("bound thread index", int64(idx), -1)
			continue
		}
		var th *core.Thread
		if idx >= 0 {
			th = r.threads[idx]
		}
		r.proc.BindThread(ctx, th)
	}
	r.proc.State(c)
	r.h.State(c)
	r.fm.State(c)
}

package mp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// This file checkpoints a multiprocessor run at a lockstep block
// boundary (a multiple of engine.BlockCycles) and resumes it in a
// fresh machine. Halt checks, watchdog observations and cancellation
// polls all land on block boundaries, so a resumed run replays them at
// exactly the cycles the uninterrupted run would. Thread-to-context
// bindings are fixed by construction (processor i, context c holds
// thread i·Contexts+c) and are not serialized; the per-processor
// fast-forward caches are derived state, dropped and recomputed at the
// boundary.

// Kind names the multiprocessor snapshot shape in the codec container.
const Kind = "mp"

// sectionRun tags the driver-level block ("MPR1").
const sectionRun = 0x4d505231

// ErrNotCheckpointable marks a configuration whose runs cannot be
// checkpointed: instrumented (Obs-enabled) runs carry sampling cursors
// and event traces, and SwitchWatch-observed runs a switch-event stream,
// that a fork would silently truncate.
var ErrNotCheckpointable = errors.New("mp: instrumented run cannot be checkpointed")

// ErrCompleted reports that the machine halted before reaching the
// requested checkpoint cycle, so there is nothing left to fork.
var ErrCompleted = errors.New("mp: run completed before the checkpoint cycle")

// CheckpointAtCtx simulates blocks [0, atCycle) and returns the machine
// serialized in the codec container, tagged with the caller's prefix
// fingerprint. atCycle must be a block boundary (multiple of 64) below
// the cycle limit.
func CheckpointAtCtx(ctx context.Context, p *prog.Program, cfg Config, atCycle int64, fingerprint string) ([]byte, error) {
	if atCycle < 0 || atCycle%engine.BlockCycles != 0 || atCycle >= cfg.LimitCycles {
		return nil, fmt.Errorf("mp: checkpoint cycle %d is not a block boundary below the %d-cycle limit",
			atCycle, cfg.LimitCycles)
	}
	m, err := newMachine(p, cfg)
	if err != nil {
		return nil, err
	}
	if m.col != nil || cfg.SwitchWatch != nil {
		return nil, ErrNotCheckpointable
	}
	completed, err := m.runBlocks(ctx, 0, atCycle)
	if err != nil {
		return nil, err
	}
	if completed {
		return nil, fmt.Errorf("%w (before cycle %d)", ErrCompleted, atCycle)
	}
	return snapshot.Seal(Kind, fingerprint, func(c snapshot.Codec) { m.state(c, &atCycle) }), nil
}

// ResumeCtx restores a checkpoint produced by CheckpointAtCtx and runs
// it to completion: snapshot.Open, which verifies the container against
// the fingerprint it was written with, then ResumeImageCtx.
func ResumeCtx(ctx context.Context, p *prog.Program, cfg Config, data []byte, fingerprint string) (*Result, error) {
	img, err := snapshot.Open(data, Kind, fingerprint)
	if err != nil {
		return nil, err
	}
	return ResumeImageCtx(ctx, p, cfg, img)
}

// ResumeImageCtx restores an opened checkpoint into a freshly built
// machine for cfg and runs it to completion, returning the same Result
// the uninterrupted run would. It only reads img.
func ResumeImageCtx(ctx context.Context, p *prog.Program, cfg Config, img *snapshot.Image) (*Result, error) {
	m, err := newMachine(p, cfg)
	if err != nil {
		return nil, err
	}
	if m.col != nil || cfg.SwitchWatch != nil {
		return nil, ErrNotCheckpointable
	}
	rd := img.Reader()
	var atCycle int64
	m.state(snapshot.Restoring(rd), &atCycle)
	if err := snapshot.Finish(rd); err != nil {
		return nil, err
	}
	if atCycle < 0 || atCycle%engine.BlockCycles != 0 || atCycle >= m.cfg.LimitCycles {
		return nil, fmt.Errorf("%w: checkpoint cycle %d is not a block boundary below the %d-cycle limit",
			snapshot.ErrMismatch, atCycle, m.cfg.LimitCycles)
	}
	completed, err := m.runBlocks(ctx, atCycle, cfg.LimitCycles)
	if err != nil {
		return nil, err
	}
	return m.result(completed), nil
}

// state visits the full machine as of block boundary *atCycle. Threads
// are already bound by newMachine in the fixed tid order, so only their
// contents are visited.
func (m *machine) state(c snapshot.Codec, atCycle *int64) {
	c.Section(sectionRun)
	c.I64(atCycle)
	// Shape checks: the resuming machine must have identical geometry.
	c.ShapeU8("scheme", uint8(m.cfg.Scheme))
	c.ShapeI64("processors", int64(m.cfg.Processors))
	c.ShapeI64("contexts", int64(m.cfg.Contexts))
	c.ShapeI64("cycle limit", m.cfg.LimitCycles)

	c.I64(&m.eng.NextGuard)
	m.eng.Watchdog.State(c)

	for _, th := range m.threads {
		th.State(c)
	}
	for _, proc := range m.procs {
		proc.State(c)
	}
	m.fab.State(c)
	m.fm.State(c)
}

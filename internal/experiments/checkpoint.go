package experiments

import (
	"context"
	"encoding/hex"
	"errors"
	"slices"
	"sort"

	"repro/internal/apps"
	"repro/internal/snapshot"
	"repro/internal/workstation"
)

// This file is the cell runner of every workstation study outside the
// grids, and its checkpoint side: sensitivity sweeps whose swept
// parameter is a measurement-time override (Config.Measure) share one
// warm-up prefix across all their cells. The planner groups cells by a
// prefix fingerprint (the configuration with the overrides removed),
// simulates each multi-cell group's warm-up once, and forks every cell of
// the group from that checkpoint. Cells whose configurations differ in
// what shapes the warm-up itself (context count, issue width) form
// singleton groups and run from scratch. The overrides are no part of a
// cell's seed (cell.go), so the cells of a group share one.
//
// Forking is an optimization, never a semantic: a forked cell is
// byte-identical to its from-scratch run (pinned by
// TestSweepForkedMatchesScratch). A checkpoint lives in memory for the
// one call that made it: it is sealed, opened once into a
// snapshot.Image, and the forks of its group read that image
// concurrently without hashing it again. A fork that rejects the image
// fails the sweep with the codec's typed error; only a machine that
// cannot be checkpointed at all (an instrumented one) runs from scratch.

// CheckpointOptions configures warm-up sharing for sweeps.
type CheckpointOptions struct {
	// Disabled turns prefix forking off; every cell then simulates its
	// own warm-up. The default (zero value) shares warm-ups.
	Disabled bool
}

// prefixKey fingerprints the part of a cell's configuration that shapes
// its warm-up: the cell's machine (workstationMachine) with its seed and
// hardening options, plus the workload. Cells with equal keys have
// byte-identical warm-up prefixes.
func prefixKey(workload string, w workstation.Config) string {
	m := workstationMachine(w)
	m.Seed, m.Guard = w.Seed, w.Guard
	sum := configSum(struct {
		Workload string
		Config   workstation.Config
	}{workload, m})
	return hex.EncodeToString(sum[:12])
}

// prefixGroup is the cells of one sweep that share a warm-up prefix, and
// the image they fork from.
type prefixGroup struct {
	cells []int
	// img is the group's checkpoint, opened once in stage 1 and only read
	// in stage 2; nil means the group's cells run from scratch.
	img *snapshot.Image
}

// studyCell is one workstation simulation of a study outside the grids:
// a workload mix on one machine.
type studyCell struct {
	workload string
	cfg      workstation.Config
}

// runStudyCells seeds every cell under cfg.Seed, runs one workstation
// simulation per cell, fanned out across the pool, and returns the
// results in cell order. Cells whose
// prefix keys collide are forked from one shared warm-up checkpoint
// instead of each simulating its own; cells that cannot fork — forking
// disabled, observability enabled, singleton groups —
// run from scratch. Results are byte-identical either way.
func runStudyCells(ctx context.Context, cfg UniConfig, cells []studyCell) ([]*workstation.Result, error) {
	kernels := make([][]apps.Kernel, len(cells))
	keys := make([]string, len(cells))
	groups := map[string]*prefixGroup{}
	cells = slices.Clone(cells)
	for i, c := range cells {
		var err error
		if kernels[i], err = ResolveWorkload(c.workload); err != nil {
			return nil, err
		}
		cells[i].cfg = seedWorkstation(cfg.Seed, c.workload, c.cfg)
		c = cells[i]
		if cfg.Checkpoint.Disabled || c.cfg.Obs.Enabled() {
			continue // forking is off, or an instrumented cell cannot be checkpointed
		}
		k := prefixKey(c.workload, c.cfg)
		keys[i] = k
		if groups[k] == nil {
			groups[k] = &prefixGroup{}
		}
		groups[k].cells = append(groups[k].cells, i)
	}
	var shared []string
	for k, g := range groups {
		if len(g.cells) > 1 {
			shared = append(shared, k)
		}
	}
	sort.Strings(shared)

	// Stage 1: one warm-up simulation per multi-cell group, sealed and
	// opened into the group's image. Each group is written by its own
	// cell here and only read in stage 2; a group that cannot be
	// checkpointed gets no image.
	err := runCells(ctx, cfg.Parallelism, len(shared), func(ctx context.Context, i int) error {
		k := shared[i]
		first := groups[k].cells[0]
		prefix := cells[first].cfg
		prefix.Measure = workstation.MeasureOverrides{}
		data, err := workstation.CheckpointWarmupCtx(ctx, kernels[first], prefix, k)
		if errors.Is(err, workstation.ErrNotCheckpointable) {
			return nil
		}
		if err != nil {
			return err
		}
		groups[k].img, err = snapshot.Open(data, workstation.Kind, k)
		return err
	})
	if err != nil {
		return nil, err
	}

	// forked returns cell i's result forked from its group's image, or
	// nil when the cell has to run from scratch.
	forked := func(ctx context.Context, i int) (*workstation.Result, error) {
		g := groups[keys[i]]
		if g == nil || g.img == nil {
			return nil, nil
		}
		r, err := workstation.ResumeImageCtx(ctx, kernels[i], cells[i].cfg, g.img)
		if err == nil {
			cellCounts.forked.Add(1)
		}
		return r, err
	}

	// Stage 2: every cell, forked when it can be, and once per run.
	runs := make([]*workstation.Result, len(cells))
	err = runCells(ctx, cfg.Parallelism, len(cells), func(ctx context.Context, i int) error {
		r, err := memo(ctx, workstationCell{cells[i].workload, cells[i].cfg}, func(ctx context.Context) (*workstation.Result, error) {
			r, err := forked(ctx, i)
			if r == nil && err == nil {
				r, err = runWorkstation(ctx, kernels[i], cells[i].cfg)
			}
			return r, err
		})
		runs[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

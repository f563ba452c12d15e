package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/workstation"
)

// This file is the sweep planner's checkpoint side: sensitivity sweeps
// whose swept parameter is a measurement-time override (Config.Measure)
// share one warm-up prefix across all their cells. The planner groups
// cells by a prefix fingerprint (the configuration with the overrides
// removed), simulates each multi-cell group's warm-up once, and forks
// every cell of the group from the cached checkpoint. Sweeps whose
// parameter shapes the warm-up itself (context count, issue width,
// remote latency) cannot share a prefix and keep running from scratch.
//
// Forking is an optimization, never a semantic: a forked cell is
// byte-identical to its from-scratch run (pinned by
// TestSweepForkedMatchesScratch), and an unusable checkpoint never fails
// the sweep: a cached file whose container does not open (corrupt,
// stale codec version, foreign fingerprint), or whose payload the
// resuming machine rejects, is re-simulated and replaced, and the
// group's cells fork from the replacement.
//
// A checkpoint is verified once per sweep, when it is opened into a
// snapshot.Image; the forks of a group then read that one image
// concurrently and do not hash it again.

// CheckpointOptions configures warm-up sharing for sweeps.
type CheckpointOptions struct {
	// Disabled turns prefix forking off; every cell then simulates its
	// own warm-up. The default (zero value) shares warm-ups.
	Disabled bool
	// Dir, when non-empty, persists prefix checkpoints as
	// <Dir>/<fingerprint>.ckpt and reuses them across runs. Empty keeps
	// checkpoints in memory for the duration of one sweep.
	Dir string
}

// prefixKey fingerprints the part of a cell's configuration that shapes
// its warm-up: the full workstation config with the measurement-time
// overrides and observability options zeroed, plus the workload and the
// snapshot codec version. Cells with equal keys have byte-identical
// warm-up prefixes; a codec bump changes every key, so stale on-disk
// checkpoints are never even opened under their old names.
func prefixKey(workload string, w workstation.Config) string {
	w.Measure = workstation.MeasureOverrides{}
	w.Obs = metrics.Options{}
	w.Cache.Chaos = nil // run-time state, derived from Guard when nil
	data, err := json.Marshal(struct {
		Codec    int
		Workload string
		Config   workstation.Config
	}{snapshot.Version, workload, w})
	if err != nil {
		return "" // unkeyable config: disables sharing for this cell
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

// prefixCache is the on-disk side of warm-up sharing: verified prefix
// checkpoints by fingerprint, when a directory is configured. Within a
// sweep the images live in the planner's group table; this cache is what
// outlasts it.
type prefixCache struct {
	dir string
}

func (pc prefixCache) path(key string) string {
	return filepath.Join(pc.dir, key+".ckpt")
}

// get opens the checkpoint file for key. A file that cannot be read, or
// whose container does not open for this key (corrupt, another codec
// version, a foreign fingerprint), reports as a miss: the caller then
// simulates the warm-up and put replaces the bad file, so the same run
// still forks and later runs stop tripping over it.
func (pc prefixCache) get(key string) *snapshot.Image {
	if pc.dir == "" {
		return nil
	}
	b, err := snapshot.LoadFile(pc.path(key))
	if err != nil {
		return nil
	}
	img, err := snapshot.Open(b, workstation.Kind, key)
	if err != nil {
		return nil
	}
	return img
}

// put opens a freshly encoded checkpoint — every image a fork reads went
// through snapshot.Open exactly once, whether it came from get or from
// here — and writes it through to disk best-effort, replacing whatever
// file held the key (a failed write leaves the image serving this run).
func (pc prefixCache) put(key string, data []byte) (*snapshot.Image, error) {
	img, err := snapshot.Open(data, workstation.Kind, key)
	if err != nil {
		return nil, err
	}
	if pc.dir != "" {
		_ = snapshot.SaveFile(pc.path(key), data)
	}
	return img, nil
}

// checkpointUnusable reports whether err is one of the typed rejections
// a decoder raises for a checkpoint that cannot be used — corrupt bytes,
// a different codec version, or a foreign fingerprint/shape. These fall
// back to from-scratch simulation; anything else is a real failure.
func checkpointUnusable(err error) bool {
	return errors.Is(err, snapshot.ErrCorrupt) ||
		errors.Is(err, snapshot.ErrVersion) ||
		errors.Is(err, snapshot.ErrMismatch)
}

// prefixGroup is the cells of one sweep that share a warm-up prefix, and
// the image they fork from.
type prefixGroup struct {
	cells []int
	// img is the group's checkpoint, opened once in stage 1 and only read
	// in stage 2; nil means the group's cells run from scratch.
	img *snapshot.Image
	// The first cell whose fork rejects img's payload re-simulates the
	// warm-up, once, and the rest of the group forks from healed.
	heal    sync.Once
	healed  *snapshot.Image
	healErr error
}

// sweepThroughputsShared is sweepThroughputs with warm-up sharing: cells
// whose prefix keys collide are forked from one shared warm-up
// checkpoint instead of each simulating its own. Cells that cannot fork
// — observability enabled, singleton groups, unkeyable configs — run
// from scratch. Results are byte-identical to sweepThroughputs either
// way.
func sweepThroughputsShared(ctx context.Context, cfg UniConfig, workload string, kernels []apps.Kernel, configs []workstation.Config) ([]float64, error) {
	if cfg.Checkpoint.Disabled {
		return sweepThroughputs(ctx, cfg.Parallelism, kernels, configs)
	}

	keys := make([]string, len(configs))
	groups := map[string]*prefixGroup{}
	for i, w := range configs {
		if w.Obs.Enabled() {
			continue // instrumented cells are not checkpointable
		}
		if k := prefixKey(workload, w); k != "" {
			keys[i] = k
			if groups[k] == nil {
				groups[k] = &prefixGroup{}
			}
			groups[k].cells = append(groups[k].cells, i)
		}
	}
	var shared []string
	for k, g := range groups {
		if len(g.cells) > 1 {
			shared = append(shared, k)
		}
	}
	sort.Strings(shared)

	// warm simulates group k's warm-up and stores the checkpoint; a group
	// that cannot be checkpointed gets no image.
	cache := prefixCache{dir: cfg.Checkpoint.Dir}
	warm := func(ctx context.Context, k string) (*snapshot.Image, error) {
		prefix := configs[groups[k].cells[0]]
		prefix.Measure = workstation.MeasureOverrides{}
		data, err := workstation.CheckpointWarmupCtx(ctx, kernels, prefix, k)
		if errors.Is(err, workstation.ErrNotCheckpointable) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		return cache.put(k, data)
	}

	// Stage 1: one image per multi-cell group, from a previous run's file
	// or one warm-up simulation. Each group is written by its own cell
	// here and only read in stage 2.
	err := runCells(ctx, cfg.Parallelism, len(shared), func(ctx context.Context, i int) error {
		k := shared[i]
		img := cache.get(k)
		if img == nil {
			var err error
			if img, err = warm(ctx, k); err != nil {
				return err
			}
		}
		groups[k].img = img
		return nil
	})
	if err != nil {
		return nil, err
	}

	// forked returns cell i's result forked from its group's image, or
	// nil when the cell has to run from scratch. A payload the machine
	// rejects (the container was sound, what it holds is not this
	// machine) is replaced, file included, by one warm-up simulation for
	// the whole group; a fresh image rejected as well is left to scratch.
	forked := func(ctx context.Context, i int) (*workstation.Result, error) {
		g := groups[keys[i]]
		if g == nil || g.img == nil {
			return nil, nil
		}
		r, err := workstation.ResumeImageCtx(ctx, kernels, configs[i], g.img)
		if !checkpointUnusable(err) {
			return r, err
		}
		g.heal.Do(func() { g.healed, g.healErr = warm(ctx, keys[i]) })
		if g.healed == nil {
			return nil, g.healErr
		}
		r, err = workstation.ResumeImageCtx(ctx, kernels, configs[i], g.healed)
		if checkpointUnusable(err) {
			return nil, nil
		}
		return r, err
	}

	// Stage 2: every cell, forked when it can be.
	thr := make([]float64, len(configs))
	err = runCells(ctx, cfg.Parallelism, len(configs), func(ctx context.Context, i int) error {
		r, err := forked(ctx, i)
		if r == nil && err == nil {
			r, err = workstation.RunCtx(ctx, kernels, configs[i])
		}
		if err != nil {
			return err
		}
		thr[i] = r.FairThroughput
		return nil
	})
	if err != nil {
		return nil, err
	}
	return thr, nil
}

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
// the sweep: a cached file whose container does not decode (corrupt,
// stale codec version, foreign fingerprint) is re-simulated and
// replaced, and a payload the resuming machine rejects falls back to the
// scratch path for that cell.

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

// prefixCache caches encoded prefix checkpoints, in memory and — when a
// directory is configured — on disk.
type prefixCache struct {
	mu  sync.Mutex
	dir string
	mem map[string][]byte
}

func newPrefixCache(dir string) *prefixCache {
	return &prefixCache{dir: dir, mem: map[string][]byte{}}
}

func (pc *prefixCache) path(key string) string {
	return filepath.Join(pc.dir, key+".ckpt")
}

// get returns the cached checkpoint for key, consulting disk on a memory
// miss. A file that cannot be read, or whose container does not decode
// for this key (corrupt, another codec version, a foreign fingerprint),
// reports as a miss: the caller then simulates the warm-up and put
// replaces the bad file, so the same run still forks and later runs
// stop tripping over it.
func (pc *prefixCache) get(key string) []byte {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if b, ok := pc.mem[key]; ok {
		return b
	}
	if pc.dir == "" {
		return nil
	}
	b, err := snapshot.LoadFile(pc.path(key))
	if err != nil {
		return nil
	}
	if _, err := snapshot.Decode(b, workstation.Kind, key); err != nil {
		return nil
	}
	pc.mem[key] = b
	return b
}

// put stores a checkpoint, writing through to disk best-effort (a failed
// write leaves the in-memory copy serving this run).
func (pc *prefixCache) put(key string, data []byte) {
	pc.mu.Lock()
	pc.mem[key] = data
	pc.mu.Unlock()
	if pc.dir != "" {
		_ = snapshot.SaveFile(pc.path(key), data)
	}
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

// sweepThroughputsShared is sweepThroughputs with warm-up sharing: cells
// whose prefix keys collide are forked from one shared warm-up
// checkpoint instead of each simulating its own. Cells that cannot fork
// — observability enabled, singleton groups, unkeyable configs — and
// cells whose checkpoint is rejected with a typed error run from
// scratch. Results are byte-identical to sweepThroughputs either way.
func sweepThroughputsShared(ctx context.Context, cfg UniConfig, workload string, kernels []apps.Kernel, configs []workstation.Config) ([]float64, error) {
	if cfg.Checkpoint.Disabled {
		return sweepThroughputs(ctx, cfg.Parallelism, kernels, configs)
	}

	keys := make([]string, len(configs))
	groups := map[string][]int{}
	for i, w := range configs {
		if w.Obs.Enabled() {
			continue // instrumented cells are not checkpointable
		}
		if k := prefixKey(workload, w); k != "" {
			keys[i] = k
			groups[k] = append(groups[k], i)
		}
	}
	var shared []string
	for k, idxs := range groups {
		if len(idxs) > 1 {
			shared = append(shared, k)
		}
	}
	sort.Strings(shared)

	// Stage 1: one warm-up simulation per multi-cell group (or a cache
	// hit from a previous sweep/run). ckpts is written only here and
	// read-only in stage 2.
	cache := newPrefixCache(cfg.Checkpoint.Dir)
	ckpts := make(map[string][]byte, len(shared))
	var mu sync.Mutex
	err := runCells(ctx, cfg.Parallelism, len(shared), func(ctx context.Context, i int) error {
		k := shared[i]
		data := cache.get(k)
		if data == nil {
			prefix := configs[groups[k][0]]
			prefix.Measure = workstation.MeasureOverrides{}
			var err error
			data, err = workstation.CheckpointWarmupCtx(ctx, kernels, prefix, k)
			if err != nil {
				if errors.Is(err, workstation.ErrNotCheckpointable) {
					return nil // the group's cells fall back to scratch
				}
				return err
			}
			cache.put(k, data)
		}
		mu.Lock()
		ckpts[k] = data
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 2: every cell, forked from its group's checkpoint when one
	// exists, from scratch otherwise.
	thr := make([]float64, len(configs))
	err = runCells(ctx, cfg.Parallelism, len(configs), func(ctx context.Context, i int) error {
		if data := ckpts[keys[i]]; data != nil {
			r, err := workstation.ResumeCtx(ctx, kernels, configs[i], data, keys[i])
			if err == nil {
				thr[i] = r.FairThroughput
				return nil
			}
			if !checkpointUnusable(err) {
				return err
			}
			// A payload this machine rejects: scratch this cell instead.
		}
		r, err := workstation.RunCtx(ctx, kernels, configs[i])
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

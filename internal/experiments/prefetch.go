package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workstation"
)

// PrefetchCell is one (workload, variant) measurement of the
// prefetching-vs-multithreading comparison.
type PrefetchCell struct {
	Workload string
	Variant  string
	Gain     float64
	// Issued/Useful report the prefetcher's own accuracy.
	Issued, Useful int64
}

// PrefetchResult compares hardware prefetching against multiple contexts
// — the two transparent latency-tolerance techniques the paper's
// introduction juxtaposes ([17] vs multiple contexts). Variants:
// single-context with next-line and stride prefetchers, the four-context
// interleaved processor without prefetching, and the two combined.
type PrefetchResult struct {
	Workloads []string
	Cells     []PrefetchCell
}

// Cell returns the (workload, variant) measurement.
func (r *PrefetchResult) Cell(w, v string) (PrefetchCell, bool) {
	for _, c := range r.Cells {
		if c.Workload == w && c.Variant == v {
			return c, true
		}
	}
	return PrefetchCell{}, false
}

// RunPrefetchComparison runs the comparison on the given workloads (nil =
// DC and DT, the memory-bound pair).
func RunPrefetchComparison(cfg UniConfig) (*PrefetchResult, error) {
	return RunPrefetchComparisonCtx(context.Background(), cfg)
}

// RunPrefetchComparisonCtx is RunPrefetchComparison with cancellation.
func RunPrefetchComparisonCtx(ctx context.Context, cfg UniConfig) (*PrefetchResult, error) {
	workloads := cfg.Workloads
	if workloads == nil {
		workloads = []string{"DC", "DT"}
	}
	res := &PrefetchResult{Workloads: workloads}

	type variant struct {
		name     string
		scheme   core.Scheme
		contexts int
		mode     cache.PrefetchMode
	}
	variants := []variant{
		{"single + next-line prefetch", core.Single, 1, cache.PrefetchNextLine},
		{"single + stride prefetch", core.Single, 1, cache.PrefetchStride},
		{"interleaved 4 ctx", core.Interleaved, 4, cache.PrefetchOff},
		{"interleaved 4 ctx + stride", core.Interleaved, 4, cache.PrefetchStride},
	}

	// One baseline plus len(variants) cells per workload, fanned out and
	// collected by grid index so parallel runs match serial ones exactly.
	type spec struct {
		workload string
		kernels  []apps.Kernel
		variant  int // -1 = single-context, no-prefetch baseline
	}
	var specs []spec
	for _, w := range workloads {
		kernels, err := ResolveWorkload(w)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec{w, kernels, -1})
		for vi := range variants {
			specs = append(specs, spec{w, kernels, vi})
		}
	}
	runs := make([]*workstation.Result, len(specs))
	err := runCells(ctx, cfg.Parallelism, len(specs), func(ctx context.Context, i int) error {
		sp := specs[i]
		scheme, contexts, mode := core.Single, 1, cache.PrefetchOff
		if sp.variant >= 0 {
			v := variants[sp.variant]
			scheme, contexts, mode = v.scheme, v.contexts, v.mode
		}
		wc := cfg.cellConfig(scheme, contexts, DeriveSeed(cfg.Seed, i))
		wc.Cache.Prefetch = mode
		r, err := workstation.RunCtx(ctx, sp.kernels, wc)
		if err != nil {
			return err
		}
		runs[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	var base *workstation.Result
	for i, sp := range specs {
		if sp.variant < 0 {
			base = runs[i]
			continue
		}
		res.Cells = append(res.Cells, PrefetchCell{
			Workload: sp.workload,
			Variant:  variants[sp.variant].name,
			Gain:     runs[i].Gain(base),
		})
	}
	return res, nil
}

// FormatPrefetchComparison renders the comparison table.
func FormatPrefetchComparison(r *PrefetchResult) string {
	var b strings.Builder
	b.WriteString("Prefetching vs. multiple contexts (fairness-normalized gain over single-context)\n\n")
	header := append([]string{"Variant"}, r.Workloads...)
	t := stats.NewTable(header...)
	var names []string
	seen := map[string]bool{}
	for _, c := range r.Cells {
		if !seen[c.Variant] {
			seen[c.Variant] = true
			names = append(names, c.Variant)
		}
	}
	for _, v := range names {
		row := []string{v}
		for _, w := range r.Workloads {
			if c, ok := r.Cell(w, v); ok {
				row = append(row, stats.Ratio(c.Gain))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	b.WriteString(fmt.Sprintf("\nPrefetching needs regular reference streams; multiple contexts are the\n" +
		"paper's \"universal\" mechanism and combine with prefetching.\n"))
	return b.String()
}

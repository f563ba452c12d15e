package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/stats"
)

// PrefetchCell is one (workload, variant) measurement of the
// prefetching-vs-multithreading comparison.
type PrefetchCell struct {
	Workload string
	Variant  string
	Gain     float64
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

// RunPrefetchComparisonCtx runs the comparison on the given workloads
// (nil = DC and DT, the memory-bound pair).
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

	// Per workload, the single-context baseline without prefetching, then
	// every variant.
	var cells []studyCell
	for _, w := range workloads {
		cells = append(cells, studyCell{w, cfg.cellConfig(core.Single, 1)})
		for _, v := range variants {
			wc := cfg.cellConfig(v.scheme, v.contexts)
			wc.Cache.Prefetch = v.mode
			cells = append(cells, studyCell{w, wc})
		}
	}
	runs, err := runStudyCells(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}

	for wi, w := range workloads {
		base := runs[wi*(1+len(variants))]
		for vi, v := range variants {
			res.Cells = append(res.Cells, PrefetchCell{
				Workload: w,
				Variant:  v.name,
				Gain:     runs[wi*(1+len(variants))+1+vi].Gain(base),
			})
		}
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

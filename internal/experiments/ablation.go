package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/workstation"
)

// AblationResult reports the design-choice studies DESIGN.md calls out:
// each row is a variant's fairness-normalized throughput gain over the
// single-context baseline on the uniprocessor workloads (the same metric
// as Table 7).
type AblationResult struct {
	Workloads []string
	Rows      []AblationRow
}

// AblationRow is one variant's gains per workload. Used of Total cells
// entered the mean (cells without a positive gain are excluded).
type AblationRow struct {
	Name  string
	Gains []float64
	Mean  float64
	Used  int
	Total int
}

// RunAblations evaluates, at four contexts on the given workloads:
//
//   - interleaved (the proposal)
//   - blocked (the prior art)
//   - blocked-fast (pipeline-register replication: 1-cycle switch, §2.2)
//   - interleaved without the BTB
//   - interleaved without the backoff instruction
//   - fine-grained (HEP-style, §2.1)
func RunAblations(cfg UniConfig) (*AblationResult, error) {
	return RunAblationsCtx(context.Background(), cfg)
}

// RunAblationsCtx is RunAblations with cancellation.
func RunAblationsCtx(ctx context.Context, cfg UniConfig) (*AblationResult, error) {
	workloads := cfg.Workloads
	if workloads == nil {
		workloads = WorkloadOrder
	}
	res := &AblationResult{Workloads: workloads}

	type variant struct {
		name   string
		scheme core.Scheme
		mutate func(*workstation.Config)
	}
	variants := []variant{
		{"interleaved", core.Interleaved, nil},
		{"blocked", core.Blocked, nil},
		{"blocked-fast (1-cycle switch)", core.BlockedFast, nil},
		{"interleaved, no BTB", core.Interleaved, func(w *workstation.Config) {
			c := core.DefaultConfig(core.Interleaved, w.Contexts)
			c.BTBEntries = 0
			w.Core = &c
		}},
		{"interleaved, no backoff", core.Interleaved, func(w *workstation.Config) {
			// The hardware still interleaves, but the code is compiled
			// without latency-tolerance yields.
			none := prog.YieldNone
			w.YieldOverride = &none
		}},
		{"fine-grained (HEP-style)", core.FineGrained, nil},
	}

	// Flatten the (baseline + variant) × workload grid into independent
	// cells and fan them out; gains are assembled afterwards in grid
	// order, so results match the serial path byte for byte.
	type spec struct {
		workload string
		kernels  []apps.Kernel
		variant  int // -1 = single-context baseline
	}
	var specs []spec
	for _, w := range workloads {
		kernels, err := ResolveWorkload(w)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec{w, kernels, -1})
	}
	for vi := range variants {
		for _, w := range workloads {
			kernels, err := ResolveWorkload(w)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec{w, kernels, vi})
		}
	}
	runs := make([]*workstation.Result, len(specs))
	err := runCells(ctx, cfg.Parallelism, len(specs), func(ctx context.Context, i int) error {
		sp := specs[i]
		scheme, contexts := core.Single, 1
		if sp.variant >= 0 {
			scheme, contexts = variants[sp.variant].scheme, 4
		}
		wcfg := cfg.cellConfig(scheme, contexts, DeriveSeed(cfg.Seed, i))
		if sp.variant >= 0 && variants[sp.variant].mutate != nil {
			variants[sp.variant].mutate(&wcfg)
		}
		r, err := workstation.RunCtx(ctx, sp.kernels, wcfg)
		if err != nil {
			return err
		}
		runs[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	base := make(map[string]float64)
	for i, w := range workloads {
		base[w] = runs[i].FairThroughput
	}
	for vi, v := range variants {
		row := AblationRow{Name: v.name}
		for wi, w := range workloads {
			r := runs[len(workloads)*(vi+1)+wi]
			row.Gains = append(row.Gains, r.FairThroughput/base[w])
		}
		var skipped int
		row.Mean, skipped = stats.GeoMean(row.Gains)
		row.Used = len(row.Gains) - skipped
		row.Total = len(row.Gains)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(r *AblationResult) string {
	var b strings.Builder
	b.WriteString("Ablations: geometric-mean throughput gain at 4 contexts\n\n")
	header := append([]string{"Variant"}, r.Workloads...)
	header = append(header, "Mean")
	t := stats.NewTable(header...)
	var usedSum, totalSum int
	for _, row := range r.Rows {
		cells := []string{row.Name}
		for _, g := range row.Gains {
			cells = append(cells, stats.Ratio(g))
		}
		cells = append(cells, stats.Ratio(row.Mean))
		t.AddRow(cells...)
		usedSum += row.Used
		totalSum += row.Total
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nMean: geometric mean over cells with a positive gain (%d of %d cells).\n", usedSum, totalSum)
	return b.String()
}

package experiments

import (
	"context"
	"fmt"
	"strings"

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

// RunAblationsCtx evaluates, at four contexts on the given workloads:
//
//   - interleaved (the proposal)
//   - blocked (the prior art)
//   - blocked-fast (pipeline-register replication: 1-cycle switch, §2.2)
//   - interleaved without the BTB
//   - interleaved without the backoff instruction
//   - fine-grained (HEP-style, §2.1)
func RunAblationsCtx(ctx context.Context, cfg UniConfig) (*AblationResult, error) {
	workloads := cfg.workloads()
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

	// The single-context baseline of every workload, then every variant
	// on every workload. The baselines and the unmodified interleaved and
	// blocked rows are Table 7's cells.
	var cells []studyCell
	for _, w := range workloads {
		cells = append(cells, studyCell{w, cfg.cellConfig(core.Single, 1)})
	}
	for _, v := range variants {
		for _, w := range workloads {
			wcfg := cfg.cellConfig(v.scheme, 4)
			if v.mutate != nil {
				v.mutate(&wcfg)
			}
			cells = append(cells, studyCell{w, wcfg})
		}
	}
	runs, err := runStudyCells(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}

	for vi, v := range variants {
		row := AblationRow{Name: v.name}
		for wi := range workloads {
			r := runs[len(workloads)*(vi+1)+wi]
			row.Gains = append(row.Gains, r.FairThroughput/runs[wi].FairThroughput)
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

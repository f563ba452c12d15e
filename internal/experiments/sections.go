package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
)

// study is one -only section outside the grids. run returns the value
// cmd/experiments' -json carries under the section's name (nil when it
// carries none) and the exact bytes the section prints.
type study struct {
	name string
	run  func(ctx context.Context, uni UniConfig, mp MPConfig) (value any, text string, err error)
}

// microStudies run before the grids: Table 4 and the Figure 2-3
// timelines, measured on a hand-built demo memory.
var microStudies = []study{
	{"table4", func(context.Context, UniConfig, MPConfig) (any, string, error) {
		r, err := Table4()
		if err != nil {
			return nil, "", err
		}
		return r, FormatTable4(r) + "\n\n", nil
	}},
	// The timelines carry no -json value: it would be a full event trace.
	{"fig2", func(context.Context, UniConfig, MPConfig) (any, string, error) {
		b, i, err := Figure2()
		if err != nil {
			return nil, "", err
		}
		return nil, fmt.Sprintf("Figure 2: switch cost of a data miss with four active contexts\n"+
			"(blocked pays %d switch slots, interleaved %d)\n\n",
			b.Stats.Slots[core.SlotSwitch], i.Stats.Slots[core.SlotSwitch]) +
			FormatTimeline(b) + FormatTimeline(i) + "\n", nil
	}},
	{"fig3", func(context.Context, UniConfig, MPConfig) (any, string, error) {
		b, i, err := Figure3()
		if err != nil {
			return nil, "", err
		}
		return nil, "Figure 3: four example threads (A:2, B:3 with dependency, C:4, D:6 insns),\n" +
			"each ending in a cache miss\n\n" +
			FormatTimeline(b) + FormatTimeline(i) +
			fmt.Sprintf("\nblocked finishes in %d cycles, interleaved in %d\n\n", b.Cycles, i.Cycles), nil
	}},
}

// studies run after the grids, on the grids' machines.
var studies = []study{
	{"ablations", func(ctx context.Context, uni UniConfig, _ MPConfig) (any, string, error) {
		r, err := RunAblationsCtx(ctx, uni)
		if err != nil {
			return nil, "", err
		}
		return r, FormatAblations(r) + "\n", nil
	}},
	{"response", func(ctx context.Context, _ UniConfig, _ MPConfig) (any, string, error) {
		r, err := RunResponseCtx(ctx, DefaultResponseConfig())
		if err != nil {
			return nil, "", err
		}
		return r, FormatResponse(r) + "\n\n", nil
	}},
	{"sweeps", func(ctx context.Context, uni UniConfig, mp MPConfig) (any, string, error) {
		var b strings.Builder
		sweeps := map[string]any{}
		for _, sw := range []struct {
			key string
			run func() (*SweepResult, error)
		}{
			{"switch_cost", func() (*SweepResult, error) { return SwitchCostSweepCtx(ctx, uni, "DC") }},
			{"context_count", func() (*SweepResult, error) { return ContextCountSweepCtx(ctx, uni, "DC") }},
			{"mshr", func() (*SweepResult, error) { return MSHRSweepCtx(ctx, uni, "DC") }},
			{"remote_latency", func() (*SweepResult, error) { return RemoteLatencySweepCtx(ctx, mp, "ocean") }},
			{"issue_width", func() (*SweepResult, error) { return IssueWidthSweepCtx(ctx, uni, "R1") }},
		} {
			r, err := sw.run()
			if err != nil {
				return nil, "", err
			}
			sweeps[sw.key] = r
			b.WriteString(FormatSweep(r) + "\n\n")
		}
		r, err := RunPrefetchComparisonCtx(ctx, uni)
		if err != nil {
			return nil, "", err
		}
		sweeps["prefetch"] = r
		b.WriteString(FormatPrefetchComparison(r) + "\n")
		return sweeps, b.String(), nil
	}},
}

// GridSections are the section names backed by the two grids — the
// subset of the -only vocabulary a distributed job can request.
var GridSections = append(workstationGrid.sectionNames(), multiprocessorGrid.sectionNames()...)

// Sections is the whole -only vocabulary, in the order cmd/experiments
// runs it: the micro studies, the grid sections, then the other studies.
var Sections = slices.Concat(studyNames(microStudies), GridSections, studyNames(studies))

func studyNames(rows []study) []string {
	names := make([]string, len(rows))
	for i, s := range rows {
		names[i] = s.name
	}
	return names
}

// GridOf names the grid that renders section name: GridWorkstation,
// GridMultiprocessor, or "" for a section outside the grids.
func GridOf(name string) string {
	switch {
	case slices.Contains(workstationGrid.sectionNames(), name):
		return GridWorkstation
	case slices.Contains(multiprocessorGrid.sectionNames(), name):
		return GridMultiprocessor
	}
	return ""
}

// IsGridSection reports whether name is one of GridSections.
func IsGridSection(name string) bool { return GridOf(name) != "" }

// RunSection runs the section name outside the grids under the two
// configs, and returns the value -json carries under that name (nil when
// it carries none) and the exact bytes cmd/experiments prints for it.
func RunSection(ctx context.Context, name string, uni UniConfig, mp MPConfig) (value any, text string, err error) {
	for _, s := range slices.Concat(microStudies, studies) {
		if s.name == name {
			return s.run(ctx, uni, mp)
		}
	}
	return nil, "", fmt.Errorf("experiments: %q is no section outside the grids", name)
}

// ParseOnly splits an -only flag into the selection list every command
// fingerprints and submits: trimmed, deduplicated, sorted; empty for "".
func ParseOnly(flag string) []string {
	var only []string
	for _, name := range strings.Split(flag, ",") {
		if name = strings.TrimSpace(name); name != "" && !slices.Contains(only, name) {
			only = append(only, name)
		}
	}
	slices.Sort(only)
	return only
}

// Selection turns an -only style list into the selector the renderers
// take: an empty list selects everything.
func Selection(only []string) func(string) bool {
	if len(only) == 0 {
		return func(string) bool { return true }
	}
	want := map[string]bool{}
	for _, n := range only {
		want[strings.TrimSpace(n)] = true
	}
	return func(name string) bool { return want[name] }
}

package experiments

import (
	"slices"
	"strings"
)

// GridSections are the section names backed by the two grids — the
// subset of the -only vocabulary a distributed job can request.
var GridSections = append(workstationGrid.sectionNames(), multiprocessorGrid.sectionNames()...)

// Sections is the whole -only vocabulary, in the order cmd/experiments
// runs it: the grid sections and the experiments outside a grid.
var Sections = slices.Concat([]string{"table4", "fig2", "fig3"}, GridSections, []string{"ablations", "response", "sweeps"})

// IsGridSection reports whether name is one of GridSections.
func IsGridSection(name string) bool { return slices.Contains(GridSections, name) }

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

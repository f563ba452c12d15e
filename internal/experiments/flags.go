package experiments

import (
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
)

// GridFlags is the grid-selection surface cmd/experiments and expserve
// submit share, so that the two resolve the same arguments to the same
// configs — and so to the same journal fingerprint and output bytes:
//
//	-quick       reduced problem sizes
//	-only LIST   the experiments (sections) to run
//	-j N         concurrent simulation cells
//	-subjects    a subset grid: these workload mixes and applications
//	-schemes     a subset grid: these schemes beside the baseline
//	-contexts    a subset grid: these context counts
//
// The three subset flags set UniConfig.Workloads / MPConfig.Apps,
// Schemes and ContextCounts; a subset run is an ordinary grid.
type GridFlags struct {
	Quick                       bool
	Only                        string
	Jobs                        int
	Subjects, Schemes, Contexts string
}

// BindGridFlags registers the grid-selection flags on fs.
func BindGridFlags(fs *flag.FlagSet) *GridFlags {
	f := &GridFlags{}
	fs.BoolVar(&f.Quick, "quick", false, "reduced problem sizes (seconds instead of minutes)")
	fs.StringVar(&f.Only, "only", "", "comma-separated subset of experiments to run ("+strings.Join(Sections, " ")+")")
	fs.IntVar(&f.Jobs, "j", runtime.NumCPU(), "concurrent simulation cells (1 = serial)")
	fs.StringVar(&f.Subjects, "subjects", "", "subset grid: comma-separated workload mixes ("+
		strings.Join(WorkloadOrder, " ")+") and applications ("+strings.Join(MPAppOrder, " ")+")")
	fs.StringVar(&f.Schemes, "schemes", "", "subset grid: comma-separated schemes beside the single-context baseline (blocked, interleaved)")
	fs.StringVar(&f.Contexts, "contexts", "", "subset grid: comma-separated context counts, e.g. 2,4")
	return f
}

// Resolve maps the flags to the -only list and the two grid configs
// Grids takes. With no subset flag set these are the default (or
// -quick) configs and -only as given. A subset flag narrows both
// configs; an empty -only then selects the sections of every grid that
// kept a subject, so a grid none of whose subjects is named is left
// out. A subset run is a grid run only: -only may then name grid
// sections alone, of grids that kept a subject. -only may name nothing
// outside Sections. Every error is a usage error.
func (f *GridFlags) Resolve() (only []string, uni UniConfig, mp MPConfig, err error) {
	uni, mp = DefaultUniConfig(), DefaultMPConfig()
	if f.Quick {
		uni, mp = QuickUniConfig(), QuickMPConfig()
	}
	uni.Parallelism, mp.Parallelism = f.Jobs, f.Jobs
	only = ParseOnly(f.Only)
	for _, name := range only {
		if !slices.Contains(Sections, name) {
			return nil, uni, mp, fmt.Errorf("-only: unknown experiment %q (have %s)", name, strings.Join(Sections, " "))
		}
	}
	if f.Subjects == "" && f.Schemes == "" && f.Contexts == "" {
		return only, uni, mp, nil
	}

	if f.Subjects != "" {
		uni.Workloads, mp.Apps = []string{}, []string{}
		for _, name := range strings.Split(f.Subjects, ",") {
			name = strings.TrimSpace(name)
			uniErr, mpErr := workstationGrid.lookup(name), multiprocessorGrid.lookup(name)
			if uniErr != nil && mpErr != nil {
				return nil, uni, mp, fmt.Errorf("-subjects: unknown subject %q (workload mixes %s; applications %s)",
					name, strings.Join(WorkloadOrder, " "), strings.Join(MPAppOrder, " "))
			}
			if uniErr == nil {
				uni.Workloads = append(uni.Workloads, name)
			}
			if mpErr == nil {
				mp.Apps = append(mp.Apps, name)
			}
		}
	}
	if f.Schemes != "" {
		var schemes []core.Scheme
		for _, name := range strings.Split(f.Schemes, ",") {
			s, err := core.ParseScheme(strings.TrimSpace(name))
			if err != nil || (s != core.Blocked && s != core.Interleaved) {
				return nil, uni, mp, fmt.Errorf("-schemes: %q is not a scheme the tables report (blocked, interleaved)", name)
			}
			schemes = append(schemes, s)
		}
		uni.Schemes, mp.Schemes = schemes, slices.Clone(schemes)
	}
	if f.Contexts != "" {
		var counts []int
		for _, c := range strings.Split(f.Contexts, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil || n < 1 {
				return nil, uni, mp, fmt.Errorf("-contexts: bad value %q", c)
			}
			counts = append(counts, n)
		}
		uni.ContextCounts, mp.ContextCounts = counts, slices.Clone(counts)
	}

	hasUni, hasMP := len(uni.workloads()) > 0, len(mp.apps()) > 0
	if len(only) == 0 {
		if hasUni {
			only = append(only, workstationGrid.sectionNames()...)
		}
		if hasMP {
			only = append(only, multiprocessorGrid.sectionNames()...)
		}
		slices.Sort(only)
	}
	for _, name := range only {
		switch {
		case slices.Contains(workstationGrid.sectionNames(), name):
			if !hasUni {
				return nil, uni, mp, fmt.Errorf("-only %s: -subjects names no workload mix", name)
			}
		case slices.Contains(multiprocessorGrid.sectionNames(), name):
			if !hasMP {
				return nil, uni, mp, fmt.Errorf("-only %s: -subjects names no application", name)
			}
		default:
			return nil, uni, mp, fmt.Errorf("-only %s: a subset grid (-subjects, -schemes, -contexts) runs grid sections only (%s)",
				name, strings.Join(GridSections, " "))
		}
	}
	return only, uni, mp, nil
}

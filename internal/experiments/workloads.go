// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), plus the ablation studies called out in
// DESIGN.md. Each driver returns structured results and has a formatter
// that prints the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/prog"
	"repro/internal/splash"
)

// WorkloadOrder is the paper's Table 5 row order.
var WorkloadOrder = []string{"IC", "DC", "DT", "FP", "R0", "R1", "SP"}

// workloadTable is paper Table 5: the four applications of each
// uniprocessor workload. The "sp:" prefix selects the uniprocessor build
// of a SPLASH application.
var workloadTable = map[string][]string{
	"IC": {"doduc", "li", "eqntott", "mxm"},
	"DC": {"cfft2d", "gmtry", "tomcatv", "vpenta"},
	"DT": {"btrix", "cholsky", "gmtry", "vpenta"},
	"FP": {"emit", "cholsky", "doduc", "matrix300"},
	"R0": {"emit", "btrix", "cfft2d", "eqntott"},
	"R1": {"mxm", "li", "matrix300", "tomcatv"},
	"SP": {"sp:mp3d", "sp:water", "sp:locus", "sp:barnes"},
}

// spKernel adapts a SPLASH application's single-threaded build to the
// workstation kernel interface. The step count is effectively infinite:
// workstation processes run until preempted.
func spKernel(name string) (apps.Kernel, error) {
	app, err := splash.Lookup(name)
	if err != nil {
		return apps.Kernel{}, err
	}
	return apps.Kernel{
		Name:   "sp-" + name,
		Shared: true, // one Build per app name
		Build: func(o apps.Options) *prog.Program {
			return app.Build(splash.Options{
				CodeBase:     o.CodeBase,
				DataBase:     o.DataBase,
				DataSize:     o.DataSize,
				Yield:        o.Yield,
				AutoTolerate: o.AutoTolerate,
				NumThreads:   1,
				Steps:        1 << 30,
				Scale:        o.Scale,
			})
		},
	}, nil
}

// ResolveWorkload returns the kernels of the named Table 5 workload.
func ResolveWorkload(name string) ([]apps.Kernel, error) {
	names, ok := workloadTable[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q (have %s)",
			name, strings.Join(WorkloadOrder, " "))
	}
	var ks []apps.Kernel
	for _, n := range names {
		if sp, isSP := strings.CutPrefix(n, "sp:"); isSP {
			k, err := spKernel(sp)
			if err != nil {
				return nil, err
			}
			ks = append(ks, k)
			continue
		}
		k, err := apps.Lookup(n)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// MPAppOrder is the paper's Table 10 column order.
var MPAppOrder = []string{"mp3d", "barnes", "water", "ocean", "locus", "pthor", "cholesky"}

// Command benchmark is the repository's benchmark: one run of one
// workload per invocation, checked for correctness, with every metric
// printed by name and unit and the result as one JSON object on the last
// line of standard output. BENCHMARK.json at the repository root declares
// the workloads, metrics and bounds; README.md in this directory defines
// them.
//
//	go run ./benchmark -workload ws-table7 [-seed N] [-seconds S] [-trace 0|1]
//	go run ./benchmark -list
//	go run ./benchmark -selfcheck 5
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics; 0: the end-to-end metrics")
	flag.StringVar(&o.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long the timed passes of one run may take (default: run_seconds of "+specFile+")")
	flag.BoolVar(&o.smoke, "smoke", false, "quick configurations and one timed pass: a functional check, not a measurement")
	flag.StringVar(&o.spans, "spans", "", "where the traced run writes its spans (default "+scratchDir+"/spans-<workload>.json)")
	flag.StringVar(&o.out, "out", "", "append the result, tagged with workload and seed, to this JSONL file (input of -compare)")
	flag.BoolVar(&o.setup, "setup-only", false, "set the workload up, print the set-up's units and exit (what a run starts its extra set-ups with)")
	list := flag.Bool("list", false, "print the workloads and metrics "+specFile+" declares, then exit")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of this many runs per workload and fail if any end-to-end metric's medians differ by more than its bound (5 is a good count)")
	compareMode := flag.Bool("compare", false, "compare two -out files given as arguments: medians and deltas per workload and metric")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fail(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	o.trace = *trace != 0
	switch {
	case *list:
		spec.list()
	case *compareMode:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two files"))
		}
		if err := compareFiles(spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
	case *selfcheck > 0:
		if err := selfCheck(spec, *selfcheck, o); err != nil {
			fail(err)
		}
	default:
		if flag.NArg() != 0 {
			fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
		}
		res, err := runOne(spec, o, os.Stdout)
		cancelRun()
		if err != nil {
			fail(err)
		}
		if o.setup {
			return
		}
		if o.out != "" {
			if err := appendRecord(o.out, record{o.workload, o.seed, o.trace, *res}); err != nil {
				fail(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %d of %d cells failed the correctness check\n", res.Failed, res.Attempted)
			os.Exit(1)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

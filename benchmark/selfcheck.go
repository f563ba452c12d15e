package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// samples holds metric values by workload, then by metric name.
type samples map[string]map[string][]float64

func (s samples) add(workload string, res result) {
	if s[workload] == nil {
		s[workload] = map[string][]float64{}
	}
	for name, m := range res.Metrics {
		s[workload][name] = append(s[workload][name], m.Value)
	}
}

// worse is how much b's median is worse than a's, as a share of a's.
func worse(m metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck is the driver's acceptance test run at home: two interleaved
// sets of runs of this same binary must agree within every end-to-end
// metric's bound, and each set's spread should stay under a third of it.
func selfCheck(spec *benchSpec, runs int, o options) error {
	names := workloadNames(spec)
	if o.workload != "" {
		if !spec.workload(o.workload) {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		names = []string{o.workload}
	}
	sets := [2]samples{{}, {}}
	for _, w := range names {
		for i := 0; i < runs; i++ {
			for k := range sets {
				res, err := runChild(w, o.seed+int64(i), o.seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, o.seed+int64(i), err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d cells failed", w, o.seed+int64(i), res.Failed, res.Attempted)
				}
				sets[k].add(w, *res)
				fmt.Fprintf(os.Stderr, "%s seed %d set %c done\n", w, o.seed+int64(i), 'A'+k)
			}
		}
	}
	return report(spec.EndToEnd, names, sets[0], sets[1], true)
}

// runChild runs one untraced run in a child process.
func runChild(workload string, seed int64, seconds float64) (*result, error) {
	var res result
	err := runSelf(&res, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	return &res, err
}

// report prints, per workload and metric, both sets' medians and
// quartile spreads and how much worse the second median is. With gate
// set it fails when a bounded metric is worse by more than its bound.
func report(decls []metricDecl, names []string, a, b samples, gate bool) error {
	var over []string
	fmt.Printf("%-12s %-36s %14s %8s %14s %8s %9s %7s\n", "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound")
	for _, w := range names {
		for _, m := range decls {
			xa, xb := a[w][m.Name], b[w][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			gap := worse(m, median(xa), median(xb))
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.2f", *m.Bound)
				if gate && gap > *m.Bound {
					over = append(over, fmt.Sprintf("%s/%s worse by %.3f > %.2f", w, m.Name, gap, *m.Bound))
				}
			}
			fmt.Printf("%-12s %-36s %14.6g %7.2f%% %14.6g %7.2f%% %8.2f%% %7s\n", w, m.Name,
				median(xa), 100*spread(xa), median(xb), 100*spread(xb), 100*gap, bound)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("sets disagree beyond the bound: %s", strings.Join(over, "; "))
	}
	return nil
}

// readRecords loads an -out file.
func readRecords(path string) (samples, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := samples{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s.add(rec.Workload, rec.Result)
	}
	return s, sc.Err()
}

// compareFiles prints two -out files side by side: end-to-end metrics
// first, then the per-layer metrics of any traced runs they hold.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	names := workloadNames(spec)
	if err := report(spec.EndToEnd, names, a, b, false); err != nil {
		return err
	}
	fmt.Println()
	return report(spec.PerLayer, names, a, b, false)
}

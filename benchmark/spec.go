package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// specFile is BENCHMARK.json, the declaration the driver gates on. The
// benchmark reads it at run time instead of repeating it: -list prints
// it, the emitted metric sets are checked against it, and -selfcheck
// takes its bounds from it.
const specFile = "BENCHMARK.json"

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec finds BENCHMARK.json in the working directory or the nearest
// parent (go test runs from benchmark/, the driver from the checkout
// root) and validates it against the contract's limits.
func loadSpec() (*benchSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, specFile))
		if err == nil {
			return parseSpec(data)
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("%s not found in the working directory or any parent", specFile)
		}
		dir = parent
	}
}

func parseSpec(data []byte) (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return nil, fmt.Errorf("%s: %d workloads, want 2..8", specFile, n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return nil, fmt.Errorf("%s: %d end-to-end metrics, want 1..16", specFile, n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return nil, fmt.Errorf("%s: %d per-layer metrics, want 1..128", specFile, n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return nil, fmt.Errorf("%s: run_seconds %d outside 1..60", specFile, s.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: name %q outside [A-Za-z0-9_.-]", specFile, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q used twice", specFile, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return nil, err
		}
	}
	for i, list := range [][]metricDecl{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if err := use(m.Name); err != nil {
				return nil, err
			}
			if !unitRE.MatchString(m.Unit) {
				return nil, fmt.Errorf("%s: metric %s has unit %q", specFile, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return nil, fmt.Errorf("%s: metric %s has better=%q", specFile, m.Name, m.Better)
			}
			if endToEnd := i == 0; endToEnd != (m.Bound != nil) {
				return nil, fmt.Errorf("%s: metric %s: only end-to-end metrics carry a bound", specFile, m.Name)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				return nil, fmt.Errorf("%s: metric %s has bound %v outside (0,0.25]", specFile, m.Name, *m.Bound)
			}
		}
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// list prints the declaration: workloads with their reasons, metrics
// with units, directions and bounds.
func (s *benchSpec) list() {
	fmt.Println("workloads:")
	for _, w := range s.Workloads {
		fmt.Printf("  %-12s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (untraced run):")
	for _, m := range s.EndToEnd {
		fmt.Printf("  %-40s %-8s %-6s is better, bound %.2f\n", m.Name, m.Unit, m.Better, *m.Bound)
	}
	fmt.Println("per-layer metrics (traced run, no bound):")
	for _, m := range s.PerLayer {
		fmt.Printf("  %-40s %-8s %-6s is better\n", m.Name, m.Unit, m.Better)
	}
}

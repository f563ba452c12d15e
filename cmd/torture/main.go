// Command torture drives the distributed experiment service through
// seeded disk and network fault schedules and holds it to the repo's
// one correctness bar: the final tables and -json bytes must be
// byte-identical to a fault-free single-process run of the same grid.
//
// Per seed, an in-process coordinator + two workers run a small
// workstation grid while:
//
//   - a faultfs injector under the coordinator's journals executes one
//     seeded disk fault (torn write, failed sync, or ENOSPC) and, when
//     it fires, the coordinator is crashed and restarted from the
//     crash-point directory image (only what was fsync'd survives);
//   - faultnet transports on every worker and on the polling client
//     execute seeded drops, delays, duplicated deliveries, connection
//     resets and truncated response bodies.
//
// The harness reports which fault classes actually fired — a schedule
// whose faults all landed beyond the run's operation count is loud,
// never silent — and -require-all-classes turns missing coverage across
// the whole seed set into a failure (the CI gate). A failing seed is
// shrunk to a minimal schedule (seeded.Minimize: fault events are removed
// in chunks, then one at a time, while the failure reproduces).
//
// Usage:
//
//	torture [-first N] [-n N] [-seed N] [-require-all-classes]
//	        [-shrink] [-run-timeout D] [-v]
//
// Exit code 0: every seed byte-identical. 1: divergence, timeout, or
// (when required) missing class coverage. 2: usage.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/faultnet"
	"repro/internal/guard"
	"repro/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("torture", flag.ExitOnError)
	first := fs.Int64("first", 1, "first seed of the range")
	n := fs.Int64("n", 20, "how many consecutive seeds to run")
	seed := fs.Int64("seed", 0, "run exactly this one seed (overrides -first/-n)")
	requireAll := fs.Bool("require-all-classes", false,
		"fail unless every disk and network fault class fired at least once across the seed set")
	shrink := fs.Bool("shrink", true, "shrink a failing seed to a minimal schedule")
	runTimeout := fs.Duration("run-timeout", 60*time.Second, "per-seed wall-clock bound")
	verbose := fs.Bool("v", false, "log coordinator/worker events")
	fs.Parse(os.Args[1:])

	seeds := make([]int64, 0, *n)
	for s := *first; s < *first+*n; s++ {
		seeds = append(seeds, s)
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" { // set, to any value: -seed 0 is seed 0
			seeds = []int64{*seed}
		}
	})

	spec := tortureSpec()
	baseText, baseJSON, err := baseline(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "torture: baseline run: %v\n", err)
		return 1
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  | "+format+"\n", args...)
		}
	}

	coverage := map[string]int64{}
	failures := 0
	for _, s := range seeds {
		sched := scheduleFromSeed(s)
		fired, err := runSeed(spec, baseText, baseJSON, sched, *runTimeout, logf)
		for class, count := range fired {
			coverage[class] += count
		}
		if err != nil {
			failures++
			fmt.Printf("seed %d: FAIL (%s): %v\n", s, sched, err)
			if *shrink {
				min := shrinkSchedule(sched, func(cand schedule) bool {
					_, rerr := runSeed(spec, baseText, baseJSON, cand, *runTimeout, logf)
					return rerr != nil
				})
				if len(min.slots()) == 0 {
					fmt.Printf("seed %d: the failure reproduces with no faults at all — a base bug\n", s)
				} else {
					fmt.Printf("seed %d: minimal failing schedule, every fault of it necessary: %s\n", s, min)
				}
				fmt.Printf("seed %d: replay with: torture -seed %d  (schedules are pure functions of the seed)\n", s, s)
			}
			continue
		}
		fmt.Printf("seed %d: ok (%s) fired: %s\n", s, sched, firedString(fired))
	}

	fmt.Printf("coverage across %d seed(s): %s\n", len(seeds), firedString(coverage))
	if *requireAll {
		var missing []string
		for _, k := range faultfs.DiskFaultKinds {
			if coverage[k.String()] == 0 {
				missing = append(missing, k.String())
			}
		}
		for _, k := range faultnet.NetFaultKinds {
			if coverage[k.String()] == 0 {
				missing = append(missing, k.String())
			}
		}
		if len(missing) > 0 {
			fmt.Printf("FAIL: fault classes never fired: %s\n", strings.Join(missing, " "))
			return 1
		}
	}
	if failures > 0 {
		fmt.Printf("FAIL: %d of %d seeds diverged\n", failures, len(seeds))
		return 1
	}
	fmt.Println("PASS: every seed byte-identical to the fault-free baseline")
	return 0
}

// tortureSpec is the grid under torture: the quick workstation config
// (one workload, 5 cells) — small enough that 20 seeds finish in CI,
// real enough that every service path (lease, heartbeat, complete,
// journal, assembly) runs.
func tortureSpec() service.JobSpec {
	cfg := experiments.QuickUniConfig()
	cfg.Workloads = []string{"DC"}
	cfg.Parallelism = 2
	return service.JobSpec{Uni: &cfg}
}

// baseline computes the fault-free single-process result the way
// cmd/experiments would print it — the byte-identity reference.
func baseline(spec service.JobSpec) (text string, jsonBytes []byte, err error) {
	grids, _, err := experiments.Grids(spec.Only, spec.Uni, spec.MP)
	if err != nil {
		return "", nil, err
	}
	blob := map[string]any{}
	for _, g := range grids {
		rep, err := g.Run(context.Background(), nil)
		if err != nil {
			return "", nil, err
		}
		text += rep.Text
		blob[g.Name()] = rep.Value
	}
	jsonBytes, err = json.MarshalIndent(blob, "", "  ")
	return text, jsonBytes, err
}

// firedString renders a fired-class tally compactly and stably.
func firedString(fired map[string]int64) string {
	if len(fired) == 0 {
		return "nothing (all scheduled faults landed beyond the run's operations)"
	}
	keys := make([]string, 0, len(fired))
	for k := range fired {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s×%d", k, fired[k]))
	}
	return strings.Join(parts, " ")
}

// rebind reopens the coordinator's address after a crash, riding out
// the old listener's teardown.
func rebind(addr string) (net.Listener, error) {
	var err error
	for i := 0; i < 100; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("rebind %s: %w", addr, err)
}

// runSeed executes one fault schedule end-to-end and byte-diffs the
// service's result against the baseline. It returns the tally of fault
// classes that actually fired, and an error on any divergence.
func runSeed(spec service.JobSpec, baseText string, baseJSON []byte, sched schedule,
	timeout time.Duration, logf func(string, ...any)) (map[string]int64, error) {

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The coordinator's "disk": journals take faults, spec files do not
	// (their writer is proved separately; keeping them clean keeps the
	// journal fault ordinals stable).
	mem := faultfs.NewMem()
	if err := mem.MkdirAll("/state", 0o755); err != nil {
		return nil, err
	}
	crashCh := make(chan faultfs.Fault, 8)
	inj := faultfs.NewInjector(mem, sched.Disk,
		func(path string) bool { return strings.HasSuffix(path, ".journal") },
		func(f faultfs.Fault) {
			select {
			case crashCh <- f:
			default:
			}
		})

	coordCfg := service.Config{
		Dir:      "/state",
		FS:       inj,
		LeaseTTL: 250 * time.Millisecond,
		Retry:    guard.Retry{Attempts: 1000, Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond, Seed: 1},
		// The breaker is effectively off: quarantine under injected chaos
		// would only slow the run, and the breaker has its own test.
		BreakerThreshold: 1000,
		Logf:             logf,
	}
	coord, err := service.NewCoordinator(coordCfg)
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)

	// Two workers, each behind its own faulted transport.
	var transports [len(netNames)]*faultnet.Transport
	for i, plan := range sched.Net {
		transports[i] = faultnet.NewTransport(nil, plan, nil)
	}
	for i := 0; i < 2; i++ {
		w := service.NewWorker(service.WorkerConfig{
			Coordinator:  "http://" + addr,
			Name:         fmt.Sprintf("torture-w%d", i),
			Slots:        2,
			PollInterval: 50 * time.Millisecond,
			Logf:         logf,
			HTTPClient:   &http.Client{Transport: transports[1+i]},
		})
		go w.Run(ctx)
	}

	tally := func() map[string]int64 {
		fired := map[string]int64{}
		for k, v := range inj.Fired() {
			fired[k.String()] += v
		}
		for _, tr := range transports {
			for k, v := range tr.Fired() {
				fired[k.String()] += v
			}
		}
		return fired
	}

	client := &service.Client{Base: "http://" + addr, HTTP: &http.Client{Transport: transports[0]}}
	deadline := time.Now().Add(timeout)

	// Submit rides out injected faults and crash-restart windows.
	var job int
	for {
		var serr error
		if job, _, serr = client.Submit(ctx, spec); serr == nil {
			break
		}
		wait, retry := service.RetryAfter(serr)
		if !retry || time.Now().After(deadline) {
			return tally(), fmt.Errorf("submit: %v", serr)
		}
		select {
		case f := <-crashCh:
			if srv, coord, err = crashRestart(srv, coord, &mem, inj, coordCfg, addr, f, logf); err != nil {
				return tally(), err
			}
		case <-time.After(wait):
		}
	}

	type outcome struct {
		res service.JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := client.WaitResult(ctx, job, 50*time.Millisecond)
		done <- outcome{res, err}
	}()

	for {
		select {
		case f := <-crashCh:
			if srv, coord, err = crashRestart(srv, coord, &mem, inj, coordCfg, addr, f, logf); err != nil {
				return tally(), err
			}
		case o := <-done:
			srv.Close()
			coord.Close()
			if o.err != nil {
				return tally(), fmt.Errorf("result: %v", o.err)
			}
			return tally(), diff(o.res, baseText, baseJSON)
		case <-time.After(time.Until(deadline)):
			srv.Close()
			coord.Close()
			return tally(), fmt.Errorf("run exceeded %v (livelock under this schedule?)", timeout)
		}
	}
}

// crashRestart is the machine rebooting mid-run: the serving process
// dies where it stands, the disk reverts to exactly what was fsync'd
// (the crash image), and a fresh coordinator recovers from it on the
// same address. The fault injector dies with the machine — a full disk
// has been "freed" by the reboot, and at most one crash per run keeps
// schedules terminating.
func crashRestart(srv *http.Server, coord *service.Coordinator, mem **faultfs.Mem,
	inj *faultfs.Injector, cfg service.Config, addr string, f faultfs.Fault,
	logf func(string, ...any)) (*http.Server, *service.Coordinator, error) {

	logf("disk fault %v on %s → crashing coordinator", f.Kind, f.Path)
	srv.Close()
	coord.Close()
	img := (*mem).CrashImage()
	*mem = img
	cfg.FS = img // post-reboot: clean disk, no further injection
	coord2, err := service.NewCoordinator(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery after %v: %w", f.Kind, err)
	}
	ln, err := rebind(addr)
	if err != nil {
		return nil, nil, err
	}
	srv2 := &http.Server{Handler: coord2.Handler()}
	go srv2.Serve(ln)
	return srv2, coord2, nil
}

// diff compares a service result against the baseline bytes.
func diff(res service.JobResult, baseText string, baseJSON []byte) error {
	if res.Failures > 0 {
		return fmt.Errorf("%d cells recorded as failed (baseline has none)", res.Failures)
	}
	if res.Mismatches > 0 {
		return fmt.Errorf("%d mismatched duplicate reports — determinism violation", res.Mismatches)
	}
	if res.Text != baseText {
		return fmt.Errorf("table text diverges from baseline (%d vs %d bytes): %s",
			len(res.Text), len(baseText), firstDiff([]byte(res.Text), []byte(baseText)))
	}
	if !bytes.Equal(res.JSON, baseJSON) {
		return fmt.Errorf("-json bytes diverge from baseline (%d vs %d bytes): %s",
			len(res.JSON), len(baseJSON), firstDiff(res.JSON, baseJSON))
	}
	return nil
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 20
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first divergence at byte %d: got ...%q, want ...%q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("one is a prefix of the other (diverge at byte %d)", n)
}

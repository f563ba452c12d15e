// Command expserve is the distributed experiment service: coordinator
// and client in one binary.
//
//	expserve serve -dir STATE [-addr 127.0.0.1:7711] [-addr-file F]
//	expserve submit -coordinator URL [-quick] [-only table7,...] [-j N] [-subjects ...] [-schemes ...] [-contexts ...]
//	expserve progress -coordinator URL -job N
//	expserve wait -coordinator URL -job N [-out F] [-json-out F]
//
// serve runs the coordinator: it accepts job specs (the same resolved
// grid configs cmd/experiments runs), fans cells out to expworker
// processes under time-bounded leases with heartbeat renewal, journals
// every completed cell before acknowledging it, and survives kill -9 —
// a restart on the same -dir resumes every job from its journal with
// zero re-simulation. SIGINT/SIGTERM shut it down gracefully (exit 0).
//
// submit resolves its grid flags through the binding cmd/experiments
// uses (experiments.BindGridFlags), posts the configurations, and prints
// the job id. For byte-identical output to a local run, pass the
// reference run's grid flags, -j included (parallelism appears in the
// result's Cfg JSON). A 429 (coordinator at its job bound) is retried
// after the coordinator's Retry-After.
//
// wait long-polls until the job completes — riding out coordinator restarts —
// then writes the job's stdout text (byte-identical to cmd/experiments)
// to -out or stdout, and the raw results JSON to -json-out. Exit codes
// follow cmd/experiments: 0 success, 1 any cell failed, 2 usage,
// 3 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: expserve serve|submit|progress|wait [flags]")
	return experiments.ExitUsage
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:])
	case "submit":
		return runSubmit(args[1:])
	case "progress":
		return runProgress(args[1:])
	case "wait":
		return runWait(args[1:])
	}
	return usage()
}

func die(err error) int {
	fmt.Fprintln(os.Stderr, "expserve:", err)
	return experiments.ExitFailure
}

func runServe(args []string) int {
	fs := flag.NewFlagSet("expserve serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7711", "listen address (port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (for port 0)")
	dir := fs.String("dir", "", "state directory for job specs and cell journals (required)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "cell lease duration; a worker silent this long forfeits its cells")
	maxJobs := fs.Int("max-jobs", 4, "active-job bound; submits beyond it get 429 + Retry-After")
	retryAttempts := fs.Int("retry-attempts", 3, "lease attempts per cell before it is recorded as failed")
	retryBase := fs.Duration("retry-base", 50*time.Millisecond, "base redispatch backoff (doubles per attempt, jittered)")
	breakerK := fs.Int("breaker", 3, "quarantine a worker after this many consecutive lease expiries")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "worker quarantine duration (0 = 10 lease TTLs)")
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "expserve serve: -dir is required")
		return experiments.ExitUsage
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "expserve: "+format+"\n", a...)
	}
	coord, err := service.NewCoordinator(service.Config{
		Dir:      *dir,
		LeaseTTL: *leaseTTL,
		MaxJobs:  *maxJobs,
		Retry: guard.Retry{Attempts: *retryAttempts, Base: *retryBase,
			Cap: 2 * time.Second, Seed: 1},
		BreakerThreshold: *breakerK,
		BreakerCooldown:  *breakerCooldown,
		Logf:             logf,
	})
	if err != nil {
		return die(err)
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return die(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return die(err)
		}
	}
	logf("serving on %s (state in %s, lease TTL %v)", bound, *dir, *leaseTTL)

	srv := &http.Server{Handler: coord.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return die(err)
		}
	case <-ctx.Done():
		logf("shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
	}
	return 0
}

// buildSpec resolves submit's grid flags to the job spec through the
// binding cmd/experiments resolves them with, so the submitted configs —
// and therefore the journal fingerprints and output bytes — agree with a
// local reference run.
func buildSpec(gf *experiments.GridFlags) (service.JobSpec, error) {
	only, ucfg, mcfg, err := gf.Resolve()
	if err != nil {
		return service.JobSpec{}, err
	}
	spec := service.JobSpec{Only: only, Uni: &ucfg, MP: &mcfg}
	grids, fp, err := experiments.Grids(spec.Only, spec.Uni, spec.MP)
	if err != nil {
		return spec, err
	}
	if len(grids) == 0 {
		return spec, fmt.Errorf("selection %q needs no grid; pick from %s",
			gf.Only, strings.Join(experiments.GridSections, " "))
	}
	// Submit the configs of the grids that run and no other: the ones the
	// run's fingerprint carries.
	if fp.Uni == nil {
		spec.Uni = nil
	}
	if fp.MP == nil {
		spec.MP = nil
	}
	return spec, nil
}

func runSubmit(args []string) int {
	fs := flag.NewFlagSet("expserve submit", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required)")
	gf := experiments.BindGridFlags(fs)
	timeout := fs.Duration("timeout", time.Minute, "give up submitting after this long")
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "expserve submit: -coordinator is required")
		return experiments.ExitUsage
	}
	spec, err := buildSpec(gf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "expserve submit:", err)
		return experiments.ExitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	client := &service.Client{Base: *coordinator}
	// Backpressure contract: a 429 names its Retry-After; honor it.
	for {
		id, cells, err := client.Submit(ctx, spec)
		if err == nil {
			fmt.Fprintf(os.Stderr, "expserve: job %d submitted (%d cells)\n", id, cells)
			fmt.Println(id)
			return 0
		}
		wait, retry := service.RetryAfter(err)
		if !retry {
			return die(err)
		}
		fmt.Fprintf(os.Stderr, "expserve: submit: %v (retrying in %v)\n", err, wait)
		select {
		case <-ctx.Done():
			return die(ctx.Err())
		case <-time.After(wait):
		}
	}
}

func runProgress(args []string) int {
	fs := flag.NewFlagSet("expserve progress", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required)")
	job := fs.Int("job", 0, "job id (required)")
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if *coordinator == "" || *job <= 0 {
		fmt.Fprintln(os.Stderr, "expserve progress: -coordinator and -job are required")
		return experiments.ExitUsage
	}
	client := &service.Client{Base: *coordinator}
	st, err := client.Status(context.Background(), *job)
	if err != nil {
		return die(err)
	}
	fmt.Printf("job %d: %d/%d cells done, %d failed, %d duplicate reports, %d mismatches, complete=%v\n",
		st.ID, st.Done, st.Cells, st.Failed, st.Dupes, st.Mismatches, st.Complete)
	return 0
}

func writeFile(path string, data []byte) error {
	return metrics.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func runWait(args []string) int {
	fs := flag.NewFlagSet("expserve wait", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required)")
	job := fs.Int("job", 0, "job id (required)")
	out := fs.String("out", "", "write the job's stdout text here (default: stdout)")
	jsonOut := fs.String("json-out", "", "write the raw results JSON here (as cmd/experiments -json)")
	poll := fs.Duration("poll", 200*time.Millisecond, "retry spacing after a transport error (the wait itself long-polls the coordinator)")
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if *coordinator == "" || *job <= 0 {
		fmt.Fprintln(os.Stderr, "expserve wait: -coordinator and -job are required")
		return experiments.ExitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := &service.Client{Base: *coordinator}
	res, err := client.WaitResult(ctx, *job, *poll)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "expserve: interrupted")
			return experiments.ExitInterrupted
		}
		return die(err)
	}
	// Atomic writes (temp + rename), as cmd/experiments -json: a crash or a
	// failed write leaves whatever the file held before.
	if *out != "" {
		if err := writeFile(*out, []byte(res.Text)); err != nil {
			return die(err)
		}
	} else {
		fmt.Print(res.Text)
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, res.JSON); err != nil {
			return die(err)
		}
	}
	if res.Dupes > 0 || res.Mismatches > 0 {
		fmt.Fprintf(os.Stderr, "expserve: job %d absorbed %d duplicate and %d mismatched reports\n",
			*job, res.Dupes, res.Mismatches)
	}
	if res.Failures > 0 {
		fmt.Fprintf(os.Stderr, "expserve: job %d finished with %d failed cells\n", *job, res.Failures)
		return experiments.ExitFailure
	}
	return 0
}

// Command expserve is the distributed experiment service: coordinator,
// worker and client in one binary.
//
//	expserve serve -dir STATE [-addr 127.0.0.1:7711] [-addr-file F]
//	expserve work -coordinator URL [-name N] [-slots K] [-poll D]
//	expserve submit -coordinator URL [-quick] [-only table7,...] [-subjects ...] [-schemes ...] [-contexts ...]
//	expserve progress -coordinator URL -job N
//	expserve wait -coordinator URL -job N [-out F] [-json-out F]
//
// serve runs the coordinator: it accepts job specs (the same resolved
// grid configs cmd/experiments runs), fans cells out to expserve work
// processes under time-bounded leases with heartbeat renewal, journals
// every completed cell before acknowledging it, and survives kill -9 —
// a restart on the same -dir resumes every job from its journal with
// zero re-simulation. SIGINT/SIGTERM shut it down gracefully (exit 0).
//
// work leases grid cells from a coordinator, simulates them through the
// same per-cell policy cmd/experiments uses (derived seeds, doubled
// budget retry), and reports the records back under heartbeat-renewed
// leases. A worker's first lease request makes it known to the
// coordinator; started before its coordinator, it retries every -poll
// until one answers. A worker runs until stopped: SIGINT/SIGTERM hand its
// leases back and exit 3. A worker that dies without that drain (kill -9)
// leaves its leases to expire, and the coordinator redispatches their
// cells.
//
// submit resolves its grid flags through the binding cmd/experiments
// uses (experiments.BindGridFlags), posts the configurations, and prints
// the job id. For byte-identical output to a local run, pass the
// reference run's grid flags; the local run's -j decides no byte. A
// transport error or a 5xx is retried every half second until -timeout.
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
	"repro/internal/metrics"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: expserve serve|work|submit|progress|wait [flags]")
	return experiments.ExitUsage
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:])
	case "work":
		return runWork(args[1:])
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
	dir := fs.String("dir", "", "state directory for the jobs' cell journals (required)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "cell lease duration; a worker silent this long forfeits its cells")
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "expserve serve: -dir is required")
		return experiments.ExitUsage
	}
	if *leaseTTL <= 0 {
		fmt.Fprintf(os.Stderr, "expserve serve: -lease-ttl %v: must be positive\n", *leaseTTL)
		return experiments.ExitUsage
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "expserve: "+format+"\n", a...)
	}
	coord, err := service.NewCoordinator(service.Config{Dir: *dir, LeaseTTL: *leaseTTL, Logf: logf})
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

func runWork(args []string) int {
	fs := flag.NewFlagSet("expserve work", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required)")
	name := fs.String("name", "", "worker name (default: host.pid)")
	slots := fs.Int("slots", 1, "concurrently simulated cells")
	poll := fs.Duration("poll", 250*time.Millisecond, "idle lease re-poll interval")
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "expserve work: -coordinator is required")
		return experiments.ExitUsage
	}
	if *slots < 1 {
		fmt.Fprintf(os.Stderr, "expserve work: -slots %d: need at least one slot\n", *slots)
		return experiments.ExitUsage
	}
	if *poll <= 0 {
		fmt.Fprintf(os.Stderr, "expserve work: -poll %v: must be positive\n", *poll)
		return experiments.ExitUsage
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s.%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := service.NewWorker(service.WorkerConfig{
		Coordinator:  *coordinator,
		Name:         *name,
		Slots:        *slots,
		PollInterval: *poll,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "expserve: "+format+"\n", a...)
		},
	})
	err := w.Run(ctx)
	switch {
	case ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "expserve: interrupted; drained")
		return experiments.ExitInterrupted
	case err != nil:
		return die(err)
	}
	return 0
}

// buildSpec resolves submit's grid flags to the job spec through the
// binding cmd/experiments resolves them with, so the submitted configs —
// and therefore the journal fingerprints and output bytes — agree with a
// local reference run. It is the spec of the run's fingerprint (SpecOf).
func buildSpec(gf *experiments.GridFlags) (service.JobSpec, error) {
	only, ucfg, mcfg, err := gf.Resolve()
	if err != nil {
		return service.JobSpec{}, err
	}
	grids, fp, err := experiments.Grids(only, &ucfg, &mcfg)
	if err != nil {
		return service.JobSpec{}, err
	}
	if len(grids) == 0 {
		return service.JobSpec{}, fmt.Errorf("selection %q needs no grid; pick from %s",
			gf.Only, strings.Join(experiments.GridSections, " "))
	}
	return service.SpecOf(fp), nil
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
	if *timeout <= 0 {
		fmt.Fprintf(os.Stderr, "expserve submit: -timeout %v: must be positive\n", *timeout)
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
	const retryEvery = 500 * time.Millisecond
	for {
		id, cells, err := client.Submit(ctx, spec)
		if err == nil {
			fmt.Fprintf(os.Stderr, "expserve: job %d submitted (%d cells)\n", id, cells)
			fmt.Println(id)
			return 0
		}
		if !service.Retryable(err) {
			return die(err)
		}
		fmt.Fprintf(os.Stderr, "expserve: submit: %v (retrying in %v)\n", err, retryEvery)
		select {
		case <-ctx.Done():
			return die(ctx.Err())
		case <-time.After(retryEvery):
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
	if *poll <= 0 {
		fmt.Fprintf(os.Stderr, "expserve wait: -poll %v: must be positive\n", *poll)
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

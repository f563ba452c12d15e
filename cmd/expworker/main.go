// Command expworker is the distributed experiment service's worker: it
// leases grid cells from an expserve coordinator, simulates them through
// the same per-cell policy cmd/experiments uses (derived seeds, doubled
// budget retry), and reports the records back under heartbeat-renewed
// leases.
//
//	expworker -coordinator http://host:port [-name N] [-slots K] [-fault PLAN]
//
// -fault scripts deterministic process-level failures for the chaos
// harness ("die-mid-cell@3", "die-before-ack@1,heartbeat-stall@4"): the
// worker executes the fault on that cell-execution ordinal and, for the
// dying kinds, stops abruptly — no completion, no heartbeat — exactly as
// a crash would, but with a distinguishable exit code.
//
// Exit codes: 0 never in practice (workers run until stopped),
// 2 usage, 3 SIGINT/SIGTERM drain, 7 injected fault executed,
// 1 anything else.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/service"
)

// ExitFaultInjected distinguishes a scripted chaos death from a real
// failure; the crash harness asserts on it.
const ExitFaultInjected = 7

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("expworker", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required)")
	name := fs.String("name", "", "worker name (default: host.pid)")
	slots := fs.Int("slots", 1, "concurrently simulated cells")
	poll := fs.Duration("poll", 250*time.Millisecond, "idle lease re-poll interval")
	fault := fs.String("fault", "", "chaos fault plan, e.g. die-mid-cell@3 (kinds: die-mid-cell, die-before-ack, heartbeat-stall)")
	if err := fs.Parse(args); err != nil {
		return experiments.ExitUsage
	}
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "expworker: -coordinator is required")
		return experiments.ExitUsage
	}
	plan, err := guard.ProcessFaults.Parse(*fault)
	if err != nil {
		fmt.Fprintln(os.Stderr, "expworker:", err)
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
		Plan:         plan,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "expworker: "+format+"\n", a...)
		},
	})
	err = w.Run(ctx)
	switch {
	case errors.Is(err, service.ErrFaultInjected):
		fmt.Fprintln(os.Stderr, "expworker:", err)
		return ExitFaultInjected
	case ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "expworker: interrupted; drained")
		return experiments.ExitInterrupted
	case err != nil:
		fmt.Fprintln(os.Stderr, "expworker:", err)
		return experiments.ExitFailure
	}
	return 0
}

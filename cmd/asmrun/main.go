// Command asmrun assembles a .s file and executes it on a chosen
// processor configuration, printing the final state and utilization
// breakdown.
//
// Usage:
//
//	asmrun -scheme interleaved -contexts 2 -copies 2 prog.s
//
// With -copies N (1 ≤ N ≤ -contexts) the program is loaded into N
// contexts: each copy gets its own thread, with its index in mp.TidReg
// and N in mp.NThreadsReg (the SPMD convention), and they share the
// program's data. Any other -copies, an unknown -scheme, a -contexts the
// scheme cannot run (core.Config.Validate), a -limit below one cycle or a
// missing file argument is a usage error (exit 2). -trace prints one
// "cycle  ctxN  disassembly" line per issued instruction, read from the
// processor's event trace after the run. That trace holds at most
// metrics.DefaultEventCap events (issues and stall spans together), so a
// long run's trace stops early; the dropped count is reported on stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/mp"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/workstation"
)

func main() {
	scheme := flag.String("scheme", "single", "context scheme")
	contexts := flag.Int("contexts", 1, "hardware contexts")
	copies := flag.Int("copies", 1, "thread copies of the program to load")
	limit := flag.Int64("limit", 100_000_000, "cycle limit")
	trace := flag.Bool("trace", false, "print a per-cycle issue trace (at most metrics.DefaultEventCap events)")
	list := flag.Bool("list", false, "print the assembled listing and exit")
	flag.Parse()

	exit := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "asmrun:", err)
		os.Exit(code)
	}
	die := func(err error) { exit(1, err) }

	if flag.NArg() != 1 {
		exit(2, fmt.Errorf("usage: asmrun [flags] file.s"))
	}
	if *copies < 1 || *copies > *contexts {
		exit(2, fmt.Errorf("-copies %d outside 1..%d (-contexts)", *copies, *contexts))
	}
	sc, err := core.ParseScheme(*scheme)
	if err != nil {
		exit(2, err)
	}
	cfg := core.DefaultConfig(sc, *contexts)
	if err := cfg.Validate(); err != nil {
		exit(2, fmt.Errorf("-scheme %v -contexts %d: %w", sc, *contexts, err))
	}
	if *limit < 1 {
		exit(2, fmt.Errorf("-limit %d: need at least one cycle", *limit))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		die(err)
	}
	p, err := prog.Assemble(flag.Arg(0), 0x1000, 0x4000_0000, 1<<24, string(src))
	if err != nil {
		die(err)
	}
	if *list {
		fmt.Print(p.Listing())
		return
	}

	m, err := workstation.NewMachine(cfg, cache.DefaultParams())
	if err != nil {
		die(err)
	}
	p.LoadInit(m.Memory)
	var col *metrics.Collector
	if *trace {
		col = metrics.NewCollector(metrics.Options{Events: true}, 1)
		m.Proc.AttachMetrics(col.Proc(0))
	}

	threads := make([]*core.Thread, *copies)
	for c := range threads {
		threads[c] = core.NewThread(fmt.Sprintf("t%d", c), p)
		threads[c].SetIntReg(mp.TidReg, uint32(c))
		threads[c].SetIntReg(mp.NThreadsReg, uint32(*copies))
		m.Proc.BindThread(c, threads[c])
	}

	cycles, done := m.RunUntilHalted(*limit)
	if col != nil {
		tr := col.Result()
		for _, ev := range tr.Events {
			if ev.Kind == metrics.KindIssue {
				fmt.Printf("%8d  ctx%d  %s\n", ev.Cycle, ev.Ctx, p.Insts[(ev.PC-p.Base)/4].String())
			}
		}
		if tr.DroppedEvents > 0 {
			fmt.Fprintf(os.Stderr, "asmrun: trace truncated: %d events dropped past the cap of %d\n",
				tr.DroppedEvents, metrics.DefaultEventCap)
		}
	}
	if !done {
		die(fmt.Errorf("did not halt within %d cycles", *limit))
	}

	fmt.Printf("%s: %d thread(s) on %v/%d — %d cycles, %d instructions (IPC %.3f)\n\n",
		p.Name, len(threads), sc, *contexts, cycles, m.Stats().Retired, m.Stats().IPC())
	bd := m.Stats().Breakdown()
	t := stats.NewTable("category", "fraction")
	t.AddRow("busy", stats.Pct(bd.Busy+bd.Sync))
	t.AddRow("instruction stall", stats.Pct(bd.InstrShort+bd.InstrLong))
	t.AddRow("inst cache", stats.Pct(bd.InstCache))
	t.AddRow("data cache/TLB", stats.Pct(bd.DataMem))
	t.AddRow("context switch", stats.Pct(bd.Switch))
	fmt.Println(t.String())

	fmt.Println("\nfinal integer registers (nonzero, thread 0):")
	for r := isa.R1; r <= isa.R31; r++ {
		if v := threads[0].IntReg(r); v != 0 {
			fmt.Printf("  %-4v = %d (%#x)\n", r, v, v)
		}
	}
}

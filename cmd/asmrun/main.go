// Command asmrun assembles a .s file and executes it on a chosen
// processor configuration, printing the final state and utilization
// breakdown.
//
// Usage:
//
//	asmrun -scheme interleaved -contexts 2 -copies 2 prog.s
//
// With -copies N the program is loaded into N contexts (each copy gets
// its own thread; they share the program's data). -trace prints one
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
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prog"
	"repro/internal/stats"
)

func main() {
	scheme := flag.String("scheme", "single", "context scheme")
	contexts := flag.Int("contexts", 1, "hardware contexts")
	copies := flag.Int("copies", 1, "thread copies of the program to load")
	limit := flag.Int64("limit", 100_000_000, "cycle limit")
	trace := flag.Bool("trace", false, "print a per-cycle issue trace (at most metrics.DefaultEventCap events)")
	list := flag.Bool("list", false, "print the assembled listing and exit")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "asmrun:", err)
		os.Exit(1)
	}

	if flag.NArg() != 1 {
		die(fmt.Errorf("usage: asmrun [flags] file.s"))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		die(err)
	}
	sc, err := core.ParseScheme(*scheme)
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

	fm := mem.New()
	p.LoadInit(fm)
	h, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		die(err)
	}
	proc, err := core.NewProcessor(core.DefaultConfig(sc, *contexts), h, fm)
	if err != nil {
		die(err)
	}
	var col *metrics.Collector
	if *trace {
		col = metrics.NewCollector(metrics.Options{Events: true}, 1)
		proc.AttachMetrics(col.Proc(0))
	}

	var threads []*core.Thread
	for c := 0; c < *copies && c < *contexts; c++ {
		th := core.NewThread(fmt.Sprintf("t%d", c), p)
		th.SetIntReg(isa.R4, uint32(c))       // tid convention
		th.SetIntReg(isa.R5, uint32(*copies)) // nthreads convention
		proc.BindThread(c, th)
		threads = append(threads, th)
	}

	cycles, done := proc.RunUntilHalted(*limit)
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
		p.Name, len(threads), sc, *contexts, cycles, proc.Stats.Retired, proc.Stats.IPC())
	bd := proc.Stats.Breakdown()
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

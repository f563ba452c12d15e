package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/prog"
	"repro/internal/stats"
)

// demoMem is the deterministic memory used by the micro experiments
// (Figures 2-3, Table 4): instruction fetches always hit; a data line
// misses once with a fixed latency and hits afterwards.
type demoMem struct {
	lat     int64
	pending map[uint32]int64
}

func newDemoMem(lat int64) *demoMem {
	return &demoMem{lat: lat, pending: make(map[uint32]int64)}
}

func (f *demoMem) preload(addr uint32) { f.pending[addr>>5] = -1 }

func (f *demoMem) FetchInst(addr uint32, now int64) (int64, bool) { return now, false }

func (f *demoMem) AccessData(addr uint32, write bool, pc uint32, now int64) memsys.DataResult {
	line := addr >> 5
	if fill, ok := f.pending[line]; ok {
		if now >= fill {
			return memsys.DataResult{Hit: true, ReadyAt: now + 3, Class: memsys.HitL1}
		}
		return memsys.DataResult{FillAt: fill, Class: memsys.Memory}
	}
	f.pending[line] = now + f.lat
	return memsys.DataResult{FillAt: now + f.lat, Class: memsys.Memory}
}

// microThread builds a thread running f's code and then HALT.
func microThread(name string, f func(b *prog.Builder)) *core.Thread {
	b := prog.NewBuilder(name, 0x1000, 0x100000, 1<<20)
	f(b)
	b.Halt()
	return core.NewThread(name, b.MustBuild())
}

// figure3Threads builds the paper's four example threads: A is two
// instructions, B is three with a two-cycle dependency between the first
// two, C is four and D is six; each ends with a load that misses.
func figure3Threads(dm *demoMem) []*core.Thread {
	hitAddr := uint32(0x200000)
	dm.preload(hitAddr)
	a := microThread("A", func(b *prog.Builder) {
		b.Add(isa.R2, isa.R3, isa.R4)
		b.Lw(isa.R5, isa.R1, 0)
	})
	bb := microThread("B", func(b *prog.Builder) {
		b.La(isa.R6, hitAddr)
		b.Lw(isa.R2, isa.R6, 0)
		b.Add(isa.R3, isa.R2, isa.R2)
		b.Lw(isa.R5, isa.R1, 64)
	})
	c := microThread("C", func(b *prog.Builder) {
		for i := 0; i < 3; i++ {
			b.Add(isa.R2, isa.R3, isa.R4)
		}
		b.Lw(isa.R5, isa.R1, 128)
	})
	d := microThread("D", func(b *prog.Builder) {
		for i := 0; i < 5; i++ {
			b.Add(isa.R2, isa.R3, isa.R4)
		}
		b.Lw(isa.R5, isa.R1, 192)
	})
	return []*core.Thread{a, bb, c, d}
}

// TimelineResult is a recorded micro-experiment run. Trace is the
// structured event record (charge spans and issue events from the
// observability layer) the timeline is rendered from.
type TimelineResult struct {
	Scheme core.Scheme
	Cycles int64
	Trace  *metrics.CellMetrics
	Stats  core.Stats
}

// timelines runs a micro experiment under the blocked and then the
// interleaved scheme: the threads that threads builds, on a 4-context
// processor over a demoMem of miss latency lat, with the event trace
// recorded.
func timelines(what string, lat int64, threads func(dm *demoMem) []*core.Thread) (blocked, interleaved *TimelineResult, err error) {
	run := func(s core.Scheme) (*TimelineResult, error) {
		dm := newDemoMem(lat)
		ths := threads(dm)
		p, err := core.NewProcessor(core.DefaultConfig(s, 4), dm, mem.New())
		if err != nil {
			return nil, err
		}
		col := metrics.NewCollector(metrics.Options{Events: true}, 1)
		p.AttachMetrics(col.Proc(0))
		for i, th := range ths {
			p.BindThread(i, th)
		}
		cycles, done := p.RunUntilHalted(10_000)
		if !done {
			return nil, fmt.Errorf("experiments: %s run did not complete", what)
		}
		return &TimelineResult{Scheme: s, Cycles: cycles, Stats: p.Stats, Trace: col.Result()}, nil
	}
	if blocked, err = run(core.Blocked); err != nil {
		return nil, nil, err
	}
	if interleaved, err = run(core.Interleaved); err != nil {
		return nil, nil, err
	}
	return blocked, interleaved, nil
}

// Figure2 runs the miss-cost microbenchmark (one context takes a miss
// while three others run independent work) under both schemes, recording
// the timelines whose switch overhead is 7 vs 2 cycles in the paper's
// Figure 2.
func Figure2() (blocked, interleaved *TimelineResult, err error) {
	return timelines("figure 2", 40, func(*demoMem) []*core.Thread {
		ths := []*core.Thread{microThread("A", func(b *prog.Builder) {
			b.Lw(isa.R2, isa.R1, 0)
			for i := 0; i < 20; i++ {
				b.Add(isa.R3, isa.R4, isa.R5)
			}
		})}
		for i := 1; i < 4; i++ {
			ths = append(ths, microThread(string(rune('A'+i)), func(b *prog.Builder) {
				for j := 0; j < 60; j++ {
					b.Add(isa.R3, isa.R4, isa.R5)
				}
			}))
		}
		return ths
	})
}

// Figure3 runs the four example threads under both schemes.
func Figure3() (blocked, interleaved *TimelineResult, err error) {
	return timelines("figure 3", 20, figure3Threads)
}

// timelineChar maps a charged slot class (by its metrics name) to the
// timeline marker: * switch overhead, m memory wait, I icache, _ idle,
// . any pipeline stall.
func timelineChar(class string) byte {
	switch class {
	case "switch":
		return '*'
	case "dmem":
		return 'm'
	case "icache":
		return 'I'
	case "idle":
		return '_'
	default:
		return '.'
	}
}

// FormatTimeline renders a Figure 2/3-style issue-slot timeline: one
// letter per cycle naming the issuing context (A-D), or a marker for
// non-issue slots (. stall, * switch overhead, m memory wait, I icache).
// The timeline is reconstructed from the event trace — issue events mark
// single cycles, charge spans paint stall regions — and assumes a
// single-issue pipeline (one slot per cycle), which the micro experiments
// use.
func FormatTimeline(r *TimelineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s scheme (%d cycles):\n  ", r.Scheme, r.Cycles)
	buf := make([]byte, r.Cycles)
	for i := range buf {
		buf[i] = '.'
	}
	if r.Trace != nil {
		for _, ev := range r.Trace.Events {
			switch ev.Kind {
			case metrics.KindIssue:
				if ev.Cycle < int64(len(buf)) {
					buf[ev.Cycle] = byte('A' + ev.Ctx)
				}
			case metrics.KindCharge:
				ch := timelineChar(ev.Class)
				for c := ev.Cycle; c < ev.Cycle+ev.Span && c < int64(len(buf)); c++ {
					buf[c] = ch
				}
			}
		}
	}
	for i, ch := range buf {
		if i > 0 && i%80 == 0 {
			b.WriteString("\n  ")
		}
		b.WriteByte(ch)
	}
	b.WriteByte('\n')
	return b.String()
}

// Table4Result reports the measured context-switch costs.
type Table4Result struct {
	BlockedMiss     int64 // cycles of switch overhead per data miss
	InterleavedMiss int64 // with four active contexts
	ExplicitSwitch  int64
	Backoff         int64
}

// Table4 measures the switch costs of Table 4 with microbenchmarks: a
// single miss (or explicit yield) surrounded by enough independent work on
// the other contexts.
func Table4() (*Table4Result, error) {
	missCost := func(s core.Scheme) (int64, error) {
		dm := newDemoMem(40)
		fm := mem.New()
		p, err := core.NewProcessor(core.DefaultConfig(s, 4), dm, fm)
		if err != nil {
			return 0, err
		}
		p.BindThread(0, microThread("misser", func(b *prog.Builder) {
			b.Lw(isa.R2, isa.R1, 0)
			for i := 0; i < 50; i++ {
				b.Add(isa.R3, isa.R4, isa.R5)
			}
		}))
		for i := 1; i < 4; i++ {
			p.BindThread(i, microThread("adder", func(b *prog.Builder) {
				for j := 0; j < 200; j++ {
					b.Add(isa.R3, isa.R4, isa.R5)
				}
			}))
		}
		if _, done := p.RunUntilHalted(10_000); !done {
			return 0, fmt.Errorf("experiments: table 4 miss run did not complete")
		}
		return p.Stats.Slots[core.SlotSwitch], nil
	}

	yieldCost := func(s core.Scheme, y prog.YieldMode) (int64, error) {
		fm := mem.New()
		p, err := core.NewProcessor(core.DefaultConfig(s, 2), newDemoMem(1_000_000), fm)
		if err != nil {
			return 0, err
		}
		b := prog.NewBuilder("yielder", 0x1000, 0x100000, 1<<20)
		b.SetYield(y)
		b.Add(isa.R2, isa.R3, isa.R4)
		b.Yield(10)
		b.Add(isa.R2, isa.R3, isa.R4)
		b.Halt()
		p.BindThread(0, core.NewThread("yielder", b.MustBuild()))
		fb := prog.NewBuilder("filler", 0x2000, 0x200000, 1<<20)
		for j := 0; j < 100; j++ {
			fb.Add(isa.R3, isa.R4, isa.R5)
		}
		fb.Halt()
		p.BindThread(1, core.NewThread("filler", fb.MustBuild()))
		if _, done := p.RunUntilHalted(10_000); !done {
			return 0, fmt.Errorf("experiments: table 4 yield run did not complete")
		}
		return p.Stats.Slots[core.SlotSwitch], nil
	}

	var (
		res Table4Result
		err error
	)
	if res.BlockedMiss, err = missCost(core.Blocked); err != nil {
		return nil, err
	}
	if res.InterleavedMiss, err = missCost(core.Interleaved); err != nil {
		return nil, err
	}
	if res.ExplicitSwitch, err = yieldCost(core.Blocked, prog.YieldSwitch); err != nil {
		return nil, err
	}
	if res.Backoff, err = yieldCost(core.Interleaved, prog.YieldBackoff); err != nil {
		return nil, err
	}
	return &res, nil
}

// FormatTable4 renders the measured switch costs alongside the paper's.
func FormatTable4(r *Table4Result) string {
	t := stats.NewTable("Switch cause", "Blocked", "Interleaved", "Paper")
	t.AddRow("Cache miss", fmt.Sprint(r.BlockedMiss), fmt.Sprint(r.InterleavedMiss), "7 / ~ceil(7/N)")
	t.AddRow("Explicit switch", fmt.Sprint(r.ExplicitSwitch), "-", "3")
	t.AddRow("Backoff", "-", fmt.Sprint(r.Backoff), "1")
	return "Table 4: Context switch costs (measured slots of switch overhead)\n\n" + t.String()
}

package fuzz

// The functional machine: threads multiplexed by an explicit ordering
// policy and stepped one instruction at a time by core.Thread.Exec, the
// pipeline's own semantics with no timing model. Every timing cell of a
// program must reach the final memory these orderings reach; since both
// run one copy of the ISA, a divergence can come only from when an
// instruction ran. What an instruction computes is checked apart from
// the fuzzer, against the independent reference interpreter in
// internal/core/ref_test.go.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mp"
	"repro/internal/prog"
)

// Ordering is a context-multiplexing policy for the functional executor.
type Ordering struct {
	Kind string `json:"kind"`           // "seq", "rr", "every", "rand"
	X    int    `json:"x,omitempty"`    // "every": switch after X instructions
	Seed int64  `json:"seed,omitempty"` // "rand": xorshift seed for switch points
}

func (o Ordering) String() string {
	switch o.Kind {
	case "every":
		return fmt.Sprintf("every%d", o.X)
	case "rand":
		return fmt.Sprintf("rand%d", o.Seed)
	}
	return o.Kind
}

// funcRun executes program p with the given thread count under ordering
// ord. Returns the final memory and threads and the number of times the
// running thread changed, or an error if any thread failed to halt within
// maxSteps total instructions.
func funcRun(ctx context.Context, p *prog.Program, threads int, ord Ordering, maxSteps int64) (*mem.Memory, []*core.Thread, int64, error) {
	m := mem.New()
	p.LoadInit(m)
	ths := make([]*core.Thread, threads)
	for i := range ths {
		ths[i] = core.NewThread(fmt.Sprintf("%s.t%d", p.Name, i), p)
		ths[i].SetIntReg(mp.TidReg, uint32(i))
		ths[i].SetIntReg(mp.NThreadsReg, uint32(threads))
	}

	var xs uint64 = uint64(ord.Seed)*2685821657736338717 + 0x9E3779B97F4A7C15
	xrand := func() uint64 {
		xs ^= xs << 13
		xs ^= xs >> 7
		xs ^= xs << 17
		return xs
	}

	var switches int64
	halted := 0
	cur := 0
	run := 0 // instructions the current thread has run since scheduled
	for step := int64(0); ; step++ {
		if step >= maxSteps {
			return nil, nil, 0, fmt.Errorf("fuzz: ordering %s did not halt within %d steps", ord, maxSteps)
		}
		if step&4095 == 0 && ctx.Err() != nil {
			return nil, nil, 0, ctx.Err()
		}
		th := ths[cur]
		forced, err := th.Exec(m)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("fuzz: ordering %s thread %d: %w", ord, cur, err)
		}
		run++
		if th.Halted {
			halted++
			if halted == len(ths) {
				return m, ths, switches, nil
			}
		}
		// Scheduling decision. BACKOFF/SWITCH force a re-evaluation in
		// every policy (they are the program's declared switch points);
		// a halted thread always yields.
		switchNow := forced || th.Halted
		switch ord.Kind {
		case "seq":
			// Run each thread to completion (valid only for single-phase
			// programs: a barrier would spin forever waiting for threads
			// that never get scheduled).
		case "rr":
			switchNow = true
		case "every":
			if run >= ord.X {
				switchNow = true
			}
		case "rand":
			if xrand()&7 == 0 {
				switchNow = true
			}
		default:
			return nil, nil, 0, fmt.Errorf("fuzz: unknown ordering kind %q", ord.Kind)
		}
		if !switchNow {
			continue
		}
		next := cur
		if ord.Kind == "rand" && !th.Halted {
			// Uniform choice among runnable threads (current included).
			live := 0
			for _, t := range ths {
				if !t.Halted {
					live++
				}
			}
			pick := int(xrand()>>8) % live
			for i, t := range ths {
				if t.Halted {
					continue
				}
				if pick == 0 {
					next = i
					break
				}
				pick--
			}
		} else {
			// Next runnable thread after cur, wrapping.
			for i := 1; i <= len(ths); i++ {
				cand := (cur + i) % len(ths)
				if !ths[cand].Halted {
					next = cand
					break
				}
			}
		}
		if next != cur {
			switches++
			cur = next
			run = 0
		}
	}
}

package guard

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/snapshot"
)

// Watchdog detects livelock and deadlock by watching a monotone progress
// counter — the machine-wide count of useful (non-synchronization)
// instructions retired. Spin loops retire synchronization instructions
// forever, so raw retirement is not progress: a deadlocked machine spins
// busily. A machine where *no* context retires a useful instruction for a
// whole window is stuck — a held-and-never-released lock, a garbled
// barrier, a livelocked protocol — long before it burns its LimitCycles
// budget.
//
// The caller polls Observe on its own cadence; the watchdog only compares
// counters, so polling never perturbs simulation timing.
type Watchdog struct {
	window       int64
	lastCount    int64
	lastProgress int64
	primed       bool
}

// NewWatchdog returns a watchdog with the given window in cycles, or nil
// if window <= 0 (disabled); all Watchdog methods are nil-safe.
func NewWatchdog(window int64) *Watchdog {
	if window <= 0 {
		return nil
	}
	return &Watchdog{window: window}
}

// Window returns the configured window (0 for a nil watchdog).
func (w *Watchdog) Window() int64 {
	if w == nil {
		return 0
	}
	return w.window
}

// Observe feeds the watchdog the current cycle and progress counter and
// reports whether the liveness window has elapsed without progress. Any
// change of the counter (including a reset to a smaller value, which
// measurement-window stat resets produce) counts as progress.
func (w *Watchdog) Observe(now, progress int64) (tripped bool) {
	if w == nil {
		return false
	}
	if !w.primed || progress != w.lastCount {
		w.primed = true
		w.lastCount = progress
		w.lastProgress = now
		return false
	}
	return now-w.lastProgress >= w.window
}

// State visits the watchdog for checkpointing: a presence byte, the
// window as a shape check, then its position — the last observed
// progress counter, the cycle it was observed at, and whether it has
// been primed — so a restored run observes exactly the staleness an
// uninterrupted run would. Nil-safe: a nil watchdog is an absent one.
func (w *Watchdog) State(c snapshot.Codec) {
	if !c.Present("watchdog", w != nil) {
		return
	}
	c.ShapeI64("watchdog window", w.window)
	c.I64(&w.lastCount)
	c.I64(&w.lastProgress)
	c.Bool(&w.primed)
}

// Stalled returns how many cycles have elapsed since the last observed
// progress.
func (w *Watchdog) Stalled(now int64) int64 {
	if w == nil || !w.primed {
		return 0
	}
	return now - w.lastProgress
}

// CtxState is one hardware context's position in a Diagnostic.
type CtxState struct {
	Ctx     int
	Thread  string
	PC      int
	PCAddr  uint32
	Inst    string // disassembly of the instruction at PC
	Halted  bool
	Retired int64
	// AvailableAt/Cause describe why the context is not issuing: it may
	// issue at or after AvailableAt, and idle slots meanwhile are
	// charged to Cause.
	AvailableAt int64
	Cause       string
}

// MissState is one outstanding miss (an occupied MSHR / in-flight
// directory transaction) in a Diagnostic.
type MissState struct {
	Line      uint32
	Addr      uint32
	FillAt    int64
	Exclusive bool
}

// ProcState is one processor's slice of a Diagnostic.
type ProcState struct {
	ID     int
	Cycle  int64
	Ctxs   []CtxState
	Slots  map[string]int64 // nonzero issue-slot breakdown by class name
	Misses []MissState
}

// LineState is the directory state of one hot line (a line with an
// outstanding transaction) in a multiprocessor Diagnostic.
type LineState struct {
	Line    uint32
	Addr    uint32
	Owner   int // exclusive dirty owner, -1 if none
	Sharers uint64
}

// MissReporter is implemented by memory systems that can enumerate their
// outstanding misses for diagnostics (cache.Hierarchy, coherence.Node).
type MissReporter interface {
	OutstandingMisses() []MissState
}

// InvariantChecker is implemented by every simulator layer with internal
// invariants (core.Processor, cache.Hierarchy, coherence.Fabric). A nil
// return means the structure is consistent; violations come back as
// *SimError.
type InvariantChecker interface {
	CheckInvariants() error
}

// Diagnostic is a structured dump of simulator state at a failure: the
// watchdog's trip report, or the context attached to an invariant
// violation. It renders as a multi-line, human-readable block.
type Diagnostic struct {
	Reason string
	Cycle  int64
	Scheme string
	// Window is the watchdog window that elapsed, for watchdog trips.
	Window int64
	Procs  []ProcState
	// Lines is the directory state of hot lines (multiprocessor runs).
	Lines []LineState
	Notes []string
	// MachineHash digests the whole machine's state (memory, cache or
	// coherence state, architectural state) at the moment the diagnostic
	// was taken; zero when the builder did not compute one. Two
	// diagnostics from the "same" failure with different hashes captured
	// genuinely different machines.
	MachineHash uint64
}

// StateHasher is implemented by machine layers that can digest their own
// state (mem.Memory, cache.Hierarchy, coherence.Fabric).
type StateHasher interface {
	Hash() uint64
}

// MachineHash folds per-layer state digests into one machine-state hash
// (snapshot.Fold over the layer digests, in argument order). Drivers fold
// their layers in a fixed order — functional memory, then the memory
// system, then architectural state — so equal hashes mean equal machines.
func MachineHash(layers ...uint64) uint64 {
	h := uint64(snapshot.FNVOffset)
	for _, v := range layers {
		h = snapshot.Fold(h, v)
	}
	return h
}

// StuckContexts returns the non-halted contexts across all processors —
// the candidates for "who is wedged" when reading a watchdog report.
func (d *Diagnostic) StuckContexts() []CtxState {
	var out []CtxState
	for _, p := range d.Procs {
		for _, c := range p.Ctxs {
			if !c.Halted && c.Thread != "" {
				out = append(out, c)
			}
		}
	}
	return out
}

// String renders the diagnostic.
func (d *Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== simulation diagnostic: %s ===\n", d.Reason)
	fmt.Fprintf(&b, "cycle %d", d.Cycle)
	if d.Scheme != "" {
		fmt.Fprintf(&b, ", scheme %s", d.Scheme)
	}
	if d.Window > 0 {
		fmt.Fprintf(&b, ", watchdog window %d", d.Window)
	}
	if d.MachineHash != 0 {
		fmt.Fprintf(&b, ", machine state %#x", d.MachineHash)
	}
	b.WriteByte('\n')
	for _, p := range d.Procs {
		fmt.Fprintf(&b, "processor %d (cycle %d):\n", p.ID, p.Cycle)
		for _, c := range p.Ctxs {
			if c.Thread == "" {
				fmt.Fprintf(&b, "  ctx %d: unbound\n", c.Ctx)
				continue
			}
			fmt.Fprintf(&b, "  ctx %d %s: pc=%d addr=%#x", c.Ctx, c.Thread, c.PC, c.PCAddr)
			if c.Inst != "" {
				fmt.Fprintf(&b, " inst=%q", c.Inst)
			}
			fmt.Fprintf(&b, " retired=%d", c.Retired)
			if c.Halted {
				b.WriteString(" halted")
			} else if c.AvailableAt > 0 {
				fmt.Fprintf(&b, " avail@%d cause=%s", c.AvailableAt, c.Cause)
			}
			b.WriteByte('\n')
		}
		if len(p.Slots) > 0 {
			names := make([]string, 0, len(p.Slots))
			for n := range p.Slots {
				names = append(names, n)
			}
			sort.Strings(names)
			b.WriteString("  slots:")
			for _, n := range names {
				fmt.Fprintf(&b, " %s=%d", n, p.Slots[n])
			}
			b.WriteByte('\n')
		}
		for _, m := range p.Misses {
			fmt.Fprintf(&b, "  outstanding miss: line=%#x addr=%#x fill@%d", m.Line, m.Addr, m.FillAt)
			if m.Exclusive {
				b.WriteString(" exclusive")
			}
			b.WriteByte('\n')
		}
	}
	if len(d.Lines) > 0 {
		b.WriteString("hot lines (directory state):\n")
		for _, l := range d.Lines {
			fmt.Fprintf(&b, "  line=%#x addr=%#x owner=%d sharers=%#b\n", l.Line, l.Addr, l.Owner, l.Sharers)
		}
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteString("===")
	return b.String()
}

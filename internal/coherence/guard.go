package coherence

import (
	"fmt"
	"slices"

	"repro/internal/guard"
)

// This file is the fabric's side of the simulation-hardening layer:
// protocol invariant checking (single-owner, directory consistency,
// transaction serialization) and hot-line / outstanding-miss reporting
// for watchdog diagnostics.

// CheckInvariants verifies the directory protocol:
//
//   - a line's dirty owner is a node and excludes other sharers, and
//     every resident copy is recorded in the directory;
//   - at most one node has an exclusive request in flight per line
//     (transaction serialization), and that node is the recorded owner —
//     ownership transfers at request time;
//   - every directory entry counts exactly the exclusive requests the
//     miss registers hold for its line.
//
// Violations come back as *guard.SimError.
func (f *Fabric) CheckInvariants() error {
	exclusive := make(map[uint32]int)
	for _, n := range f.nodes {
		for i := range n.pending {
			pf := &n.pending[i]
			if !pf.exclusive {
				continue
			}
			line := pf.line
			if prev, ok := exclusive[line]; ok {
				return guard.NewSimError("coherence.invariant",
					fmt.Errorf("line %#x: exclusive requests in flight from nodes %d and %d", line, prev, n.id)).
					WithAddr(f.lineAddr(line))
			}
			exclusive[line] = n.id
			owner := int32(-1)
			if e := f.peekEntry(line); e != nil {
				owner = e.owner
			}
			if owner != int32(n.id) {
				return guard.NewSimError("coherence.invariant",
					fmt.Errorf("line %#x: node %d fetching exclusive but directory owner is %d", line, n.id, owner)).
					WithAddr(f.lineAddr(line))
			}
		}
	}
	pages := make([]uint32, 0, len(f.dir))
	for no := range f.dir {
		pages = append(pages, no)
	}
	slices.Sort(pages)
	for _, no := range pages {
		for i := range f.dir[no] {
			line := no<<dirPageShift | uint32(i)
			want := int32(0)
			if _, ok := exclusive[line]; ok {
				want = 1
			}
			if err := f.entryFault(line, &f.dir[no][i], want); err != nil {
				return guard.NewSimError("coherence.invariant", err).WithAddr(f.lineAddr(line))
			}
		}
	}
	return nil
}

// entryFault reports how line's directory entry breaks the protocol
// against the caches and the writes miss registers hold in flight for it,
// or nil.
func (f *Fabric) entryFault(line uint32, e *dirEntry, writes int32) error {
	if e.owner >= int32(len(f.nodes)) {
		return fmt.Errorf("line %#x: owner %d not a node", line, e.owner)
	}
	if e.owner >= 0 && e.sharers&^(1<<uint(e.owner)) != 0 {
		return fmt.Errorf("line %#x: dirty owner %d with sharers %b", line, e.owner, e.sharers)
	}
	addr := f.lineAddr(line)
	for n, node := range f.nodes {
		if node.cache.Present(addr) && e.owner != int32(n) && e.sharers&(1<<uint(n)) == 0 {
			return fmt.Errorf("line %#x: node %d resident but not in directory", line, n)
		}
	}
	if e.writes != writes {
		return fmt.Errorf("line %#x: directory counts %d exclusive requests in flight, miss registers hold %d", line, e.writes, writes)
	}
	return nil
}

// HotLines reports the directory state of every line with an outstanding
// transaction, in ascending line order, up to max entries (unlimited when
// max <= 0). These are the lines a wedged machine is fighting over, so
// watchdog diagnostics include them.
func (f *Fabric) HotLines(max int) []guard.LineState {
	var lines []uint32
	for _, n := range f.nodes {
		for i := range n.pending {
			lines = append(lines, n.pending[i].line)
		}
	}
	slices.Sort(lines)
	lines = slices.Compact(lines)
	if max > 0 && len(lines) > max {
		lines = lines[:max]
	}
	out := make([]guard.LineState, 0, len(lines))
	for _, line := range lines {
		ls := guard.LineState{Line: line, Addr: f.lineAddr(line), Owner: -1}
		if e := f.peekEntry(line); e != nil {
			ls.Owner = int(e.owner)
			ls.Sharers = e.sharers
		}
		out = append(out, ls)
	}
	return out
}

// OutstandingMisses reports node n's in-flight directory transactions, in
// ascending line order, for watchdog diagnostics.
func (n *Node) OutstandingMisses() []guard.MissState {
	sorted := slices.Clone(n.pending)
	slices.SortFunc(sorted, func(a, b pendingFill) int {
		return int(int64(a.line) - int64(b.line))
	})
	out := make([]guard.MissState, 0, len(sorted))
	for _, pf := range sorted {
		out = append(out, guard.MissState{
			Line:      pf.line,
			Addr:      n.fab.lineAddr(pf.line),
			FillAt:    pf.fill,
			Exclusive: pf.exclusive,
		})
	}
	return out
}

// CheckInvariants on a node delegates to its fabric, so a node standing
// in as a processor's memory system is checkable through the same
// interface as the workstation hierarchy.
func (n *Node) CheckInvariants() error { return n.fab.CheckInvariants() }

var (
	_ guard.InvariantChecker = (*Fabric)(nil)
	_ guard.InvariantChecker = (*Node)(nil)
	_ guard.MissReporter     = (*Node)(nil)
)

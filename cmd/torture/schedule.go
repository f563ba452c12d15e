package main

import (
	"fmt"

	"repro/internal/faultfs"
	"repro/internal/faultnet"
	"repro/internal/seeded"
)

// schedule is one seed's complete fault plan: a disk plan under the
// coordinator's journals, and a network plan per HTTP participant (the
// polling client and each of the two workers, in netNames order).
type schedule struct {
	Disk seeded.Plan[faultfs.FaultKind]
	Net  [3]seeded.Plan[faultnet.FaultKind]
}

var netNames = [3]string{"client", "w0", "w1"}

// String renders the four plans in seeded.Plan syntax, each under its
// participant's name.
func (s schedule) String() string {
	out := fmt.Sprintf("disk{%s}", s.Disk)
	for i, p := range s.Net {
		out += fmt.Sprintf(" %s{%s}", netNames[i], p)
	}
	return out
}

// scheduleFromSeed derives the whole schedule from the seed alone — a
// pure function, so "replay seed N" is the complete reproduction
// recipe.
//
// The disk spans are fitted to a 5-cell torture run, which performs only
// ~6 journal writes and ~6 syncs per job (and the ENOSPC budget to its
// byte volume, past the journal header, within the cell records), so
// scheduled disk faults actually land. One disk class per seed — the run
// crashes and restarts on the first disk fault, so arming several would
// leave the rest unfired noise. The class rotates with the seed, taken as
// unsigned so a negative seed arms one too; network plans carry all five
// classes (request volume is high enough for faultnet's 2..21 ordinal
// window on every transport).
func scheduleFromSeed(seed int64) schedule {
	x := seeded.Stream(uint64(seed) ^ 0x746f7274) // "tort": decorrelate from other consumers of the seed
	disk := seeded.Event[faultfs.FaultKind]{Kind: faultfs.DiskFaultKinds[uint64(seed)%3]}
	switch disk.Kind {
	case faultfs.FaultTornWrite:
		disk.At = int64(2 + x.Next()%5)
		disk.Arg = int64(x.Next() % 48)
	case faultfs.FaultFailedSync:
		disk.At = int64(2 + x.Next()%5)
	case faultfs.FaultENOSPC:
		disk.At = int64(400 + x.Next()%1200)
	}
	s := schedule{Disk: seeded.Plan[faultfs.FaultKind]{disk}}
	for i := range s.Net {
		s.Net[i] = faultnet.PlanFromSeed(int64(x.Next()))
	}
	return s
}

// slot addresses one event of a schedule: plan 0 is the disk plan, plan
// 1+i is Net[i].
type slot struct{ plan, i int }

// slots lists every armed fault, for shrinking.
func (s schedule) slots() []slot {
	var out []slot
	for i := range s.Disk {
		out = append(out, slot{0, i})
	}
	for n, p := range s.Net {
		for i := range p {
			out = append(out, slot{1 + n, i})
		}
	}
	return out
}

// only returns the schedule holding just the listed events of s.
func (s schedule) only(keep []slot) schedule {
	var out schedule
	for _, k := range keep {
		if k.plan == 0 {
			out.Disk = append(out.Disk, s.Disk[k.i])
		} else {
			out.Net[k.plan-1] = append(out.Net[k.plan-1], s.Net[k.plan-1][k.i])
		}
	}
	return out
}

// shrinkSchedule minimizes a failing schedule to a 1-minimal one: every
// remaining fault is necessary (removing any one of them makes the
// failure vanish). fails runs a candidate and reports whether it still
// fails.
func shrinkSchedule(s schedule, fails func(schedule) bool) schedule {
	return s.only(seeded.Minimize(s.slots(), func(keep []slot) bool { return fails(s.only(keep)) }))
}

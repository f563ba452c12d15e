package workstation

import "testing"

func TestOSDefaults(t *testing.T) {
	p := DefaultOSParams()
	if p.SliceCycles <= 0 || p.AffinitySlices != 3 {
		t.Errorf("defaults = %+v", p)
	}
	// The slice must dwarf every stall latency in the system (the paper's
	// 30 ms slice is six million cycles; ours is scaled but must stay
	// >> the 34-cycle memory latency by orders of magnitude).
	if p.SliceCycles < 10_000 {
		t.Errorf("slice %d too short relative to miss latencies", p.SliceCycles)
	}
}

func TestInterferenceMonotone(t *testing.T) {
	prev := Interference{}
	for _, n := range []int{0, 1, 2, 4, 8} {
		got := InterferenceFor(n)
		if got.ILines < prev.ILines || got.DLines < prev.DLines || got.TLBEntries < prev.TLBEntries {
			t.Errorf("interference not monotone at %d processes: %+v after %+v", n, got, prev)
		}
		prev = got
	}
}

func TestInterferenceSublinear(t *testing.T) {
	// Table 6's reconstruction: doubling the processes switched must not
	// double the displaced lines (shared OS text and data dominate).
	one := InterferenceFor(1)
	four := InterferenceFor(4)
	if four.DLines >= 4*one.DLines {
		t.Errorf("interference superlinear: 1 -> %d, 4 -> %d", one.DLines, four.DLines)
	}
}

func TestZeroSwitchStillPerturbs(t *testing.T) {
	// The scheduler itself runs on every interrupt even when it switches
	// nothing (the paper's affinity case with all apps loaded).
	got := InterferenceFor(0)
	if got.ILines == 0 || got.DLines == 0 {
		t.Error("a zero-switch scheduler call must still displace some lines")
	}
}

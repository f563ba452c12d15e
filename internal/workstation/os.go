package workstation

// The paper's operating-system model (§4.3): a time-slicing scheduler
// with processor affinity whose only simulated effect is cache
// interference. At every scheduler invocation it displaces cache lines
// and TLB entries, per Torrellas' measurements of IRIX on a Silicon
// Graphics 4D/340 (paper Table 6).

// OSParams configures the OS model.
type OSParams struct {
	// SliceCycles is the scheduler interrupt period. The paper uses
	// 30 ms at 200 MHz = 6 M cycles; the default here is scaled down by
	// 100x (see DESIGN.md §3) so full workloads simulate quickly while
	// slices stay far longer than any miss latency.
	SliceCycles int64

	// AffinitySlices: a scheduled group of applications stays on the
	// processor for AffinitySlices × contexts slices before the next
	// group runs (the paper's affinity mechanism).
	AffinitySlices int
}

// DefaultOSParams returns the paper's OS model, time-scaled.
func DefaultOSParams() OSParams {
	return OSParams{SliceCycles: 60_000, AffinitySlices: 3}
}

// Interference is the cache damage of one scheduler invocation.
type Interference struct {
	ILines     int // instruction-cache lines displaced
	DLines     int // data-cache lines displaced
	TLBEntries int // TLB entries displaced
}

// InterferenceFor returns the displacement for a scheduler call that
// switched nSwitched processes. The counts reconstruct paper Table 6
// (whose values are garbled in the source text): interference grows
// sublinearly with the number of processes switched, and a zero-switch
// scheduler call still perturbs the caches slightly.
func InterferenceFor(nSwitched int) Interference {
	switch {
	case nSwitched <= 0:
		return Interference{ILines: 16, DLines: 32, TLBEntries: 2}
	case nSwitched == 1:
		return Interference{ILines: 64, DLines: 128, TLBEntries: 8}
	case nSwitched == 2:
		return Interference{ILines: 96, DLines: 192, TLBEntries: 12}
	case nSwitched <= 4:
		return Interference{ILines: 160, DLines: 320, TLBEntries: 20}
	default:
		return Interference{ILines: 224, DLines: 448, TLBEntries: 28}
	}
}

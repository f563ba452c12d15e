package workstation

// Tests of the OS scheduling machinery: affinity grouping, interference
// effects, and the fairness metric itself.

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/prog"
)

// spinKernel is a trivial compute kernel used to isolate scheduler
// behaviour from application behaviour.
func spinKernel(name string) apps.Kernel {
	return apps.Kernel{Name: name, Build: func(o apps.Options) *prog.Program {
		b := prog.NewBuilder(name, o.CodeBase, o.DataBase, 1<<16)
		b.Label("forever")
		for i := 0; i < 16; i++ {
			b.Addi(2, 2, 1)
		}
		b.J("forever")
		return b.MustBuild()
	}}
}

func TestAffinityGivesEqualShares(t *testing.T) {
	// Four identical compute kernels on one context: the affinity
	// scheduler must give each the same number of slices, so retirement
	// is (nearly) equal.
	ks := []apps.Kernel{spinKernel("a"), spinKernel("b"), spinKernel("c"), spinKernel("d")}
	cfg := DefaultConfig(core.Single, 1)
	cfg.OS.SliceCycles = 5_000
	cfg.MeasureRotations = 2
	res, err := Run(ks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	min, max := res.Apps[0].Retired, res.Apps[0].Retired
	for _, a := range res.Apps {
		if a.Retired < min {
			min = a.Retired
		}
		if a.Retired > max {
			max = a.Retired
		}
	}
	if min == 0 || float64(max-min)/float64(max) > 0.05 {
		t.Errorf("unequal shares: min %d, max %d", min, max)
	}
}

func TestFairMetricEqualsRawForIdenticalApps(t *testing.T) {
	// With identical apps there is no runlength bias, so the fair metric
	// must be close to the raw aggregate IPC.
	ks := []apps.Kernel{spinKernel("a"), spinKernel("b")}
	cfg := DefaultConfig(core.Interleaved, 2)
	cfg.OS.SliceCycles = 5_000
	res, err := Run(ks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var retired int64
	for _, a := range res.Apps {
		retired += a.Retired
	}
	rawIPC := float64(retired) / float64(res.Stats.Cycles)
	if diff := res.FairThroughput - rawIPC; diff > 0.05 || diff < -0.05 {
		t.Errorf("fair %.3f vs raw %.3f diverge for identical apps", res.FairThroughput, rawIPC)
	}
}

func TestInterferenceCostsThroughput(t *testing.T) {
	// The same workload with a much more aggressive scheduler (tiny
	// slices -> frequent interference) must lose throughput.
	k, err := apps.Lookup("mxm")
	if err != nil {
		t.Fatal(err)
	}
	ks := []apps.Kernel{k, k, k, k}
	calm := DefaultConfig(core.Single, 1)
	calm.OS.SliceCycles = 20_000
	calmRes, err := Run(ks, calm)
	if err != nil {
		t.Fatal(err)
	}
	frantic := DefaultConfig(core.Single, 1)
	frantic.OS.SliceCycles = 1_000 // 20x the scheduler invocations
	franticRes, err := Run(ks, frantic)
	if err != nil {
		t.Fatal(err)
	}
	if franticRes.FairThroughput >= calmRes.FairThroughput {
		t.Errorf("frantic scheduling (%.3f) should cost throughput vs calm (%.3f)",
			franticRes.FairThroughput, calmRes.FairThroughput)
	}
}

func TestGainHelper(t *testing.T) {
	a := &Result{FairThroughput: 0.6}
	b := &Result{FairThroughput: 0.3}
	if g := a.Gain(b); g != 2.0 {
		t.Errorf("gain = %v", g)
	}
	if g := a.Gain(nil); g != 0 {
		t.Errorf("gain vs nil = %v", g)
	}
	if g := a.Gain(&Result{}); g != 0 {
		t.Errorf("gain vs zero = %v", g)
	}
}

func TestOSParamsPlumbed(t *testing.T) {
	// A custom affinity multiplier changes the group period; just verify
	// the run accepts and uses non-default OS params without error.
	ks := []apps.Kernel{spinKernel("a"), spinKernel("b")}
	cfg := DefaultConfig(core.Blocked, 2)
	cfg.OS = OSParams{SliceCycles: 2_000, AffinitySlices: 1}
	if _, err := Run(ks, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMoreContextsThanApps(t *testing.T) {
	// Two applications on a four-context processor: two contexts stay
	// unbound and their slots are charged to idle, not to a crash.
	ks := []apps.Kernel{spinKernel("a"), spinKernel("b")}
	cfg := DefaultConfig(core.Interleaved, 4)
	cfg.OS.SliceCycles = 4_000
	res, err := Run(ks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FairThroughput <= 0 {
		t.Error("no progress with spare contexts")
	}
}

func TestSingleApplication(t *testing.T) {
	ks := []apps.Kernel{spinKernel("solo")}
	cfg := DefaultConfig(core.Single, 1)
	cfg.OS.SliceCycles = 4_000
	res, err := Run(ks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].Retired == 0 {
		t.Error("solo app made no progress")
	}
}

package workstation

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

func testWorkload(t testing.TB, names ...string) []apps.Kernel {
	t.Helper()
	var ks []apps.Kernel
	for _, n := range names {
		k, err := apps.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	return ks
}

func quickConfig(s core.Scheme, n int) Config {
	cfg := DefaultConfig(s, n)
	cfg.OS.SliceCycles = 10_000
	return cfg
}

func TestRunProducesBreakdown(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta") // DC workload
	res, err := Run(ks, quickConfig(core.Single, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Throughput >= 1 {
		t.Errorf("throughput = %v, want in (0,1)", res.Throughput)
	}
	var total int64
	for _, s := range res.Stats.Slots {
		total += s
	}
	if total != res.Stats.Cycles {
		t.Errorf("slot conservation violated: %d != %d", total, res.Stats.Cycles)
	}
	if len(res.Apps) != 4 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	for _, a := range res.Apps {
		if a.Retired <= 0 {
			t.Errorf("app %s made no progress", a.Name)
		}
	}
}

// The paper's headline workstation result: on a memory-bound workload the
// interleaved scheme gains clearly with four contexts, while the blocked
// scheme gains little (Table 7: DC +65% vs +23%).
func TestInterleavedBeatsBlockedOnDC(t *testing.T) {
	ks := testWorkload(t, "cfft2d", "gmtry", "tomcatv", "vpenta")

	single, err := Run(ks, quickConfig(core.Single, 1))
	if err != nil {
		t.Fatal(err)
	}
	inter, err := Run(ks, quickConfig(core.Interleaved, 4))
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := Run(ks, quickConfig(core.Blocked, 4))
	if err != nil {
		t.Fatal(err)
	}

	iGain := inter.Throughput / single.Throughput
	bGain := blocked.Throughput / single.Throughput
	t.Logf("DC gains: interleaved %.3f, blocked %.3f (single busy %.3f)",
		iGain, bGain, single.Throughput)
	if iGain <= bGain {
		t.Errorf("interleaved gain %.3f must exceed blocked gain %.3f", iGain, bGain)
	}
	if iGain < 1.1 {
		t.Errorf("interleaved gain %.3f too small for a memory-bound workload", iGain)
	}
}

func TestSchemeDeterminism(t *testing.T) {
	ks := testWorkload(t, "emit", "btrix", "cfft2d", "eqntott") // R0
	r1, err := Run(ks, quickConfig(core.Interleaved, 2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ks, quickConfig(core.Interleaved, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Error("workstation run not deterministic")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, quickConfig(core.Single, 1)); err == nil {
		t.Error("empty workload accepted")
	}
	ks := testWorkload(t, "emit")
	bad := quickConfig(core.Single, 1)
	bad.Contexts = 0
	if _, err := Run(ks, bad); err == nil {
		t.Error("zero contexts accepted")
	}
}

// A Core override that disagrees with the machine's scheme or context
// count is refused: the runner binds Contexts threads and compiled the
// kernels for Scheme's yield instruction.
func TestCoreOverrideMustMatchMachine(t *testing.T) {
	ks := testWorkload(t, "emit")
	for _, tc := range []struct {
		name     string
		scheme   core.Scheme
		contexts int
		ok       bool
	}{
		{"same scheme and contexts", core.Interleaved, 4, true},
		{"fewer contexts", core.Interleaved, 2, false},
		{"more contexts", core.Interleaved, 8, false},
		{"another scheme", core.Blocked, 4, false},
	} {
		cfg := quickConfig(core.Interleaved, 4)
		ccfg := core.DefaultConfig(tc.scheme, tc.contexts)
		ccfg.BTBEntries = 0 // what an override is for
		cfg.Core = &ccfg
		_, err := Run(ks, cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "core override")) {
			t.Errorf("%s: accepted, or refused for another reason: %v", tc.name, err)
		}
	}
}

func TestYieldModeFor(t *testing.T) {
	if YieldModeFor(core.Blocked).String() != "switch" ||
		YieldModeFor(core.Interleaved).String() != "backoff" ||
		YieldModeFor(core.Single).String() != "none" {
		t.Error("yield mapping wrong")
	}
}

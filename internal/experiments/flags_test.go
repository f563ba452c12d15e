package experiments

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// resolveArgs parses args through the grid-flag binding and resolves them.
func resolveArgs(args ...string) ([]string, UniConfig, MPConfig, error) {
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	gf := BindGridFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, UniConfig{}, MPConfig{}, err
	}
	return gf.Resolve()
}

// With no subset flag the binding resolves to exactly the configs the
// commands built by hand before it existed, so default runs keep their
// output, journal fingerprints and job specs.
func TestGridFlagsUnsetResolveToDefaultConfigs(t *testing.T) {
	for _, quick := range []bool{false, true} {
		args := []string{"-j", "3", "-only", "table7,fig9"}
		wantUni, wantMP := DefaultUniConfig(), DefaultMPConfig()
		if quick {
			args = append(args, "-quick")
			wantUni, wantMP = QuickUniConfig(), QuickMPConfig()
		}
		wantUni.Parallelism, wantMP.Parallelism = 3, 3
		only, uni, mp, err := resolveArgs(args...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(only, []string{"fig9", "table7"}) {
			t.Errorf("quick=%v: -only resolved to %v", quick, only)
		}
		if !reflect.DeepEqual(uni, wantUni) || !reflect.DeepEqual(mp, wantMP) {
			t.Errorf("quick=%v: resolved configs differ from the defaults:\n%+v\n%+v", quick, uni, mp)
		}
	}
}

// A subset run is an ordinary grid: the named subjects go to the grid
// that knows them, each with its baseline, and a grid none of whose
// subjects is named is left out.
func TestGridFlagsSubsetGrids(t *testing.T) {
	for _, c := range []struct {
		args  []string
		sizes map[string]int
	}{
		{[]string{"-subjects", "DC", "-schemes", "interleaved", "-contexts", "2,4"},
			map[string]int{GridWorkstation: 3}},
		{[]string{"-subjects", "DC,ocean"},
			map[string]int{GridWorkstation: 5, GridMultiprocessor: 5}},
		{[]string{"-subjects", "barnes", "-schemes", "blocked", "-contexts", "2", "-only", "table10"},
			map[string]int{GridMultiprocessor: 2}},
		{[]string{"-contexts", "2"},
			map[string]int{GridWorkstation: 7 * 3, GridMultiprocessor: 7 * 3}},
	} {
		args := append([]string{"-quick"}, c.args...)
		only, uni, mp, err := resolveArgs(args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		grids, _, err := Grids(only, &uni, &mp)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		got := map[string]int{}
		for _, g := range grids {
			got[g.Name()] = g.Size()
		}
		if !reflect.DeepEqual(got, c.sizes) {
			t.Errorf("%v: grids %v, want %v", args, got, c.sizes)
		}
	}
	_, uni, mp, err := resolveArgs("-subjects", "DC,ocean", "-schemes", "interleaved", "-contexts", "2,4")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uni.Workloads, []string{"DC"}) || !reflect.DeepEqual(mp.Apps, []string{"ocean"}) ||
		!reflect.DeepEqual(mp.Schemes, []core.Scheme{core.Interleaved}) || !reflect.DeepEqual(uni.ContextCounts, []int{2, 4}) {
		t.Errorf("subset configs: uni %v %v %v, mp %v %v %v",
			uni.Workloads, uni.Schemes, uni.ContextCounts, mp.Apps, mp.Schemes, mp.ContextCounts)
	}
}

// -only takes the names in Sections and nothing else: a misspelt name is
// a usage error that lists the valid ones, not a run that selects nothing.
func TestGridFlagsRejectUnknownSections(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "tabel7"},
		{"-quick", "-only", "table7,fig10"},
		{"-subjects", "DC", "-only", "nosuch"},
	} {
		_, _, _, err := resolveArgs(args...)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), strings.Join(Sections, " ")) {
			t.Errorf("%v: error %v, want an unknown experiment listing %v", args, err, Sections)
		}
	}
	for _, name := range Sections {
		if only, _, _, err := resolveArgs("-only", name); err != nil || len(only) != 1 {
			t.Errorf("-only %s: %v, %v", name, only, err)
		}
	}
	if want := []string{"table7", "fig6", "fig7", "table10", "fig8", "fig9"}; !reflect.DeepEqual(GridSections, want) {
		t.Errorf("GridSections = %v, want %v", GridSections, want)
	}
}

func TestGridFlagsRejectBadSubsets(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-subjects", "nosuch"}, "unknown subject"},
		{[]string{"-subjects", "DC,"}, "unknown subject"},
		{[]string{"-contexts", "0"}, "-contexts"},
		{[]string{"-contexts", "2,"}, "-contexts"},
		{[]string{"-contexts", "two"}, "-contexts"},
		{[]string{"-schemes", "single"}, "-schemes"},
		{[]string{"-schemes", "fine-grained"}, "-schemes"},
		{[]string{"-subjects", "DC", "-only", "table10"}, "names no application"},
		{[]string{"-subjects", "ocean", "-only", "fig6"}, "names no workload mix"},
		{[]string{"-contexts", "2", "-only", "sweeps"}, "grid sections only"},
	} {
		if _, _, _, err := resolveArgs(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one mentioning %q", c.args, err, c.want)
		}
	}
}

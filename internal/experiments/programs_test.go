package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/splash"
)

// The programs the grids link are pinned by Program.Fingerprint (every
// instruction field, decoded fields included, the data image and the
// labels), so a change to the Builder, the assembler's tables or a kernel
// that moves one byte of a linked program fails here by name.

// pinnedSchemes are the three compilations a grid links: no yield point,
// SWITCH and BACKOFF.
var pinnedSchemes = []core.Scheme{core.Single, core.Blocked, core.Interleaved}

// linkedPrograms links every (kernel, Options) the two grids ask for and
// returns one "name fingerprint" line each: the kernels of every Table 5
// mix at their place in it, with the yield mode and AutoTolerate
// workstation.newRunner uses for each scheme, and the seven SPLASH apps
// through splash.MPOptions at 8 and 16 threads.
func linkedPrograms(t *testing.T) []string {
	t.Helper()
	var lines []string
	pin := func(name string, p *prog.Program) {
		lines = append(lines, fmt.Sprintf("%s %016x", name, p.Fingerprint()))
	}
	for _, mix := range WorkloadOrder {
		kernels, err := ResolveWorkload(mix)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range kernels {
			for _, s := range pinnedSchemes {
				yield := s.YieldMode()
				pin(fmt.Sprintf("ws/%s/%d/%s/%v", mix, i, k.Name, yield), k.Build(apps.Options{
					CodeBase:     0x0100_0000*uint32(i+1) + 0x4800*uint32(i),
					DataBase:     0x4000_0000 + 0x0200_0000*uint32(i) + 0x3800*uint32(i),
					Yield:        yield,
					AutoTolerate: yield != prog.YieldNone,
				}))
			}
		}
	}
	mpc := QuickMPConfig()
	for _, name := range MPAppOrder {
		app, err := splash.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range pinnedSchemes {
			for _, threads := range []int{8, 16} {
				pin(fmt.Sprintf("mp/%s/%v/%d", name, s, threads),
					app.Build(splash.MPOptions(s, threads, mpc.Steps, mpc.Scale)))
			}
		}
	}
	return lines
}

func TestLinkedProgramsPinned(t *testing.T) {
	golden := filepath.Join("testdata", "programs.golden")
	blob, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(linkedPrograms(t), "\n") + "\n"
	if got == string(blob) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(blob), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Errorf("program moved: got %q, want %q", gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d programs linked, %s pins %d", len(gotLines)-1, golden, len(wantLines)-1)
	}
	t.Logf("linked programs now:\n%s", got)
}

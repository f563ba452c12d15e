package main

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

// gridFlags parses args through the grid-flag binding both submit and
// cmd/experiments register.
func gridFlags(t *testing.T, args ...string) *experiments.GridFlags {
	t.Helper()
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	gf := experiments.BindGridFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return gf
}

// submit resolves its flags the way cmd/experiments does and sends only
// the configs the selection's grids run under: the same configs, and so
// the same fingerprint, a local run of the same arguments journals under.
func TestBuildSpecSubmitsOnlyWhatTheSelectionRuns(t *testing.T) {
	for _, c := range []struct {
		args    []string
		uni, mp bool
		list    string
	}{
		{nil, true, true, ""},
		{[]string{"-only", "table7"}, true, false, "table7"},
		{[]string{"-only", " fig9 ,table10"}, false, true, "fig9 table10"},
		{[]string{"-only", "fig6,fig8"}, true, true, "fig6 fig8"},
		{[]string{"-subjects", "DC", "-schemes", "interleaved", "-contexts", "2,4"}, true, false, "fig6 fig7 table7"},
		{[]string{"-subjects", "DC,ocean", "-only", "table10"}, false, true, "table10"},
		{[]string{"-subjects", "ocean", "-contexts", "2"}, false, true, "fig8 fig9 table10"},
	} {
		args := append([]string{"-quick", "-j", "2"}, c.args...)
		spec, err := buildSpec(gridFlags(t, args...))
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if (spec.Uni != nil) != c.uni || (spec.MP != nil) != c.mp || strings.Join(spec.Only, " ") != c.list {
			t.Errorf("%v: spec %v with uni=%v mp=%v", args, spec.Only, spec.Uni != nil, spec.MP != nil)
		}

		// What cmd/experiments does with the same arguments.
		only, uni, mp, err := gridFlags(t, args...).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		_, fp, err := experiments.Grids(only, &uni, &mp)
		if err != nil {
			t.Fatal(err)
		}
		if (fp.Uni != nil && !reflect.DeepEqual(*spec.Uni, uni)) || (fp.MP != nil && !reflect.DeepEqual(*spec.MP, mp)) {
			t.Errorf("%v: submit sends configs other than the ones experiments runs", args)
		}
		if got, want := experiments.NewFingerprint(spec.Uni, spec.MP, spec.Only).Hash(), fp.Hash(); got != want {
			t.Errorf("%v: submit fingerprint %s, experiments %s", args, got, want)
		}
	}
	for _, args := range [][]string{{"-only", "table4"}, {"-only", "sweeps,fig2"}, {"-only", "tabel7"}, {"-subjects", "nosuch"}, {"-contexts", "0"}} {
		if _, err := buildSpec(gridFlags(t, args...)); err == nil {
			t.Errorf("%v built a spec", args)
		}
	}
}

// A selection submit cannot resolve is a usage error, reported before the
// coordinator is contacted.
func TestSubmitBadSelectionExitsUsage(t *testing.T) {
	for _, only := range []string{"tabel7", "table4"} {
		if code := run([]string{"submit", "-coordinator", "http://127.0.0.1:1", "-only", only}); code != experiments.ExitUsage {
			t.Errorf("submit -only %s returned %d, want %d", only, code, experiments.ExitUsage)
		}
	}
}

// wait writes its two files atomically: a write that fails exits
// non-zero and leaves what the file held before, as cmd/experiments
// -json does. The failing write here is a name so long that the
// temporary file beside it cannot be created — a plain truncating
// write to the same name would have succeeded and destroyed the file.
func TestWaitWritesAtomically(t *testing.T) {
	coord, err := service.NewCoordinator(service.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	worked := make(chan error, 1)
	go func() {
		worked <- service.NewWorker(service.WorkerConfig{Coordinator: srv.URL, Name: "w",
			PollInterval: 10 * time.Millisecond}).Run(ctx)
	}()
	defer func() {
		cancel()
		<-worked
	}()

	spec, err := buildSpec(gridFlags(t, "-quick", "-j", "2", "-only", "table7", "-subjects", "DC"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&service.Client{Base: srv.URL}).Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	out, jsonOut := filepath.Join(dir, "out.txt"), filepath.Join(dir, "out.json")
	wait := []string{"wait", "-coordinator", srv.URL, "-job", "1"}
	if code := run(append(wait, "-out", out, "-json-out", jsonOut)); code != 0 {
		t.Fatalf("wait returned %d", code)
	}
	text, err := os.ReadFile(out)
	if err != nil || !strings.HasPrefix(string(text), "Table 7:") {
		t.Errorf("-out holds %q, %v", text, err)
	}
	if blob, err := os.ReadFile(jsonOut); err != nil || !strings.Contains(string(blob), `"workstation"`) {
		t.Errorf("-json-out holds %q, %v", blob, err)
	}

	long := filepath.Join(dir, strings.Repeat("o", 250))
	if err := os.WriteFile(long, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, files := range [][]string{{"-out", long}, {"-out", out, "-json-out", long}} {
		if code := run(append(wait, files...)); code == 0 {
			t.Errorf("wait %v onto an unwritable name returned 0", files)
		}
		if kept, err := os.ReadFile(long); err != nil || string(kept) != "previous" {
			t.Errorf("the failed write of wait %v left %q, %v; want the previous file intact", files, kept, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) != 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}

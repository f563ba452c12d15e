package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// submit resolves its flags the way cmd/experiments does and sends only
// the configs the selection's grids run under.
func TestBuildSpecSubmitsOnlyWhatTheSelectionRuns(t *testing.T) {
	for _, c := range []struct {
		only    string
		uni, mp bool
		list    string
	}{
		{"", true, true, ""},
		{"table7", true, false, "table7"},
		{" fig9 ,table10", false, true, "fig9 table10"},
		{"fig6,fig8", true, true, "fig6 fig8"},
	} {
		spec, err := buildSpec(true, c.only, 2)
		if err != nil {
			t.Fatalf("-only %q: %v", c.only, err)
		}
		if (spec.Uni != nil) != c.uni || (spec.MP != nil) != c.mp || strings.Join(spec.Only, " ") != c.list {
			t.Errorf("-only %q: spec %v with uni=%v mp=%v", c.only, spec.Only, spec.Uni != nil, spec.MP != nil)
		}
	}
	for _, only := range []string{"table4", "sweeps,fig2"} {
		if _, err := buildSpec(true, only, 2); err == nil {
			t.Errorf("-only %q built a spec with no grid in it", only)
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

	spec, err := buildSpec(true, "table7", 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.Uni.Workloads = []string{"DC"}
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

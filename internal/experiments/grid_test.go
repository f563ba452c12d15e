package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// The grid contract: what every scheduler may assume of every grid the
// selection function returns. New per-grid behaviour goes in here as a
// row or a check, run over both machines, not as a mirrored test.

func contractConfigs() (*UniConfig, *MPConfig) {
	uni := journalTestConfig()
	mpc := QuickMPConfig()
	mpc.Apps = []string{"ocean"}
	mpc.Parallelism = 2
	return &uni, &mpc
}

func reportBytes(t *testing.T, rep *GridReport) string {
	t.Helper()
	blob, err := json.Marshal(rep.Value)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Text + string(blob)
}

func TestGridContract(t *testing.T) {
	uni, mpc := contractConfigs()
	grids, fp, err := Grids(nil, uni, mpc)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 {
		t.Fatalf("an empty selection over both configs runs %d grids, want 2", len(grids))
	}
	ctx := context.Background()
	for _, g := range grids {
		t.Run(g.Name(), func(t *testing.T) {
			n := g.Size()
			for _, i := range []int{-1, n} {
				if raw, err := g.RunCell(ctx, i); err == nil || raw != nil {
					t.Errorf("RunCell(%d) on a %d-cell grid = %s, %v; want an error and no record", i, n, raw, err)
				}
			}
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if raw, err := g.RunCell(cancelled, 0); err == nil || raw != nil {
				t.Errorf("RunCell under a cancelled context = %s, %v; want an error and no record", raw, err)
			}

			// One rule for what counts as a cell's outcome.
			for _, bad := range []string{`{"stats":{}}`, `{}`, `{"retried":true}`, `[1]`, `not json`} {
				if _, err := g.Validate(json.RawMessage(bad)); err == nil {
					t.Errorf("Validate accepted %s", bad)
				}
			}
			failedRec := g.FailedRecord("dispatch: gave up")
			if failed, err := g.Validate(failedRec); err != nil || !failed {
				t.Errorf("Validate(FailedRecord) = %v, %v; want a valid failure", failed, err)
			}

			// Cell by cell, then assembled: the distributed path.
			recs := make([]json.RawMessage, n)
			for i := range recs {
				if recs[i], err = g.RunCell(ctx, i); err != nil {
					t.Fatalf("cell %d: %v", i, err)
				}
				if failed, err := g.Validate(recs[i]); err != nil || failed {
					t.Fatalf("cell %d: Validate = %v, %v; want a valid result", i, failed, err)
				}
			}
			byCell, err := g.Assemble(recs)
			if err != nil {
				t.Fatal(err)
			}
			if byCell.Failures != 0 || byCell.Skipped != 0 || len(byCell.Cells) != n {
				t.Fatalf("clean grid assembled with %d failures, %d skipped, %d cells", byCell.Failures, byCell.Skipped, len(byCell.Cells))
			}

			// The local driver, journaling; then a pure replay of its journal.
			path := filepath.Join(t.TempDir(), "grid.journal")
			j, err := CreateJournal(path, fp)
			if err != nil {
				t.Fatal(err)
			}
			local, err := g.Run(ctx, j)
			if err != nil {
				t.Fatal(err)
			}
			if j.Appended() != n {
				t.Errorf("local driver journaled %d of %d cells", j.Appended(), n)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := OpenJournal(path, fp)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			replayed, err := g.Run(ctx, j2)
			if err != nil {
				t.Fatal(err)
			}
			if j2.Replayed() != n || j2.Appended() != 0 {
				t.Errorf("replay simulated: %d replayed, %d appended, want %d and 0", j2.Replayed(), j2.Appended(), n)
			}
			want := reportBytes(t, local)
			if got := reportBytes(t, byCell); got != want {
				t.Errorf("per-cell RunCell + Assemble differs from the local driver:\n%s\n--- local ---\n%s", got, want)
			}
			if got := reportBytes(t, replayed); got != want {
				t.Errorf("journal replay differs from the local driver:\n%s\n--- local ---\n%s", got, want)
			}
			for i := range recs {
				if raw, ok := j2.ReplayRaw(g.Name(), i); !ok || !bytes.Equal(raw, recs[i]) {
					t.Errorf("cell %d: the local driver journaled a different record than RunCell returns", i)
				}
			}

			// Degraded grids: a dispatcher's failed record is FAIL, a cell
			// that never completed is SKIP, a record that is no outcome is
			// FAIL too — on both machines, baseline included.
			for _, c := range []struct {
				name             string
				rec              json.RawMessage
				failed, skipped  int
				mark, failureHas string
			}{
				{"failed record", failedRec, 1, 0, "FAIL", "dispatch: gave up"},
				{"never completed", nil, 0, 1, "SKIP", ""},
				{"no outcome", json.RawMessage(`{"stats":{}}`), 1, 0, "FAIL", "carries no result"},
			} {
				for _, at := range []int{0, 1} {
					degraded := append([]json.RawMessage(nil), recs...)
					degraded[at] = c.rec
					rep, err := g.Assemble(degraded)
					if err != nil {
						t.Fatalf("%s at cell %d: %v", c.name, at, err)
					}
					cell := rep.Cells[at]
					if rep.Failures != c.failed || rep.Skipped != c.skipped || cell.Failed != (c.failed == 1) || cell.Skipped != (c.skipped == 1) {
						t.Errorf("%s at cell %d: %d failures, %d skipped, cell %+v", c.name, at, rep.Failures, rep.Skipped, cell.CellStatus)
					}
					if !strings.Contains(cell.Failure, c.failureHas) {
						t.Errorf("%s at cell %d: failure %q, want it to mention %q", c.name, at, cell.Failure, c.failureHas)
					}
					// A lost baseline takes its subject's ratios with it; a
					// lost cell shows as its own mark in the table.
					if at == 1 && !strings.Contains(rep.Text, c.mark) {
						t.Errorf("%s at cell 1: no %s in\n%s", c.name, c.mark, rep.Text)
					}
					if at == 0 && !strings.Contains(rep.Text, "(0 of ") {
						t.Errorf("%s at the baseline: ratios survived it\n%s", c.name, rep.Text)
					}
				}
			}
			if _, err := g.Assemble(recs[:n-1]); err == nil {
				t.Error("Assemble accepted a short record list")
			}
		})
	}
}

// The one mapping from a selection and the configs at hand to the grids
// that run and the fingerprint they run under.
func TestGridsSelection(t *testing.T) {
	uni, mpc := contractConfigs()
	for _, c := range []struct {
		name    string
		only    []string
		uni     *UniConfig
		mp      *MPConfig
		want    string // grid names, space-separated
		wantErr string
	}{
		{"everything", nil, uni, mpc, "workstation multiprocessor", ""},
		{"only the config at hand", nil, uni, nil, "workstation", ""},
		{"only the config at hand (mp)", nil, nil, mpc, "multiprocessor", ""},
		{"a table names its grid", []string{"table10"}, uni, mpc, "multiprocessor", ""},
		{"a figure names its grid", []string{"fig6", "table7"}, uni, mpc, "workstation", ""},
		{"both, in evaluation order", []string{"fig9", "fig7"}, uni, mpc, "workstation multiprocessor", ""},
		{"other experiments select no grid", []string{"table4", "sweeps"}, uni, mpc, "", ""},
		{"nothing at hand", nil, nil, nil, "", ""},
		{"a named grid needs its config", []string{"table7"}, nil, mpc, "", "needs the workstation grid"},
		{"a named grid needs its config (mp)", []string{"fig8"}, uni, nil, "", "needs the multiprocessor grid"},
		{"unknown subjects surface", nil, &UniConfig{Workloads: []string{"nope"}}, nil, "", "unknown workload"},
	} {
		t.Run(c.name, func(t *testing.T) {
			grids, fp, err := Grids(c.only, c.uni, c.mp)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one mentioning %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, g := range grids {
				names = append(names, g.Name())
			}
			if got := strings.Join(names, " "); got != c.want {
				t.Errorf("grids = %q, want %q", got, c.want)
			}
			// The fingerprint carries the configs of the grids that run
			// and no other.
			ran := func(name string) bool { return strings.Contains(" "+c.want+" ", " "+name+" ") }
			if (fp.Uni != nil) != ran(GridWorkstation) || (fp.MP != nil) != ran(GridMultiprocessor) {
				t.Errorf("fingerprint carries uni=%v mp=%v for grids %q", fp.Uni != nil, fp.MP != nil, c.want)
			}
		})
	}
	if got := strings.Join(ParseOnly(" table7, fig6 ,table7,,"), "|"); got != "fig6|table7" {
		t.Errorf("ParseOnly = %q", got)
	}
	if ParseOnly("") != nil {
		t.Error(`ParseOnly("") selected something`)
	}
}

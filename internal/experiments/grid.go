package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// One grid core under both machines.
//
// The paper runs one experimental design twice: for every subject — a
// workload mix on the workstation (Table 7), an application on the
// multiprocessor (Table 10) — the single-context baseline, then every
// scheme at every context count, each cell reported as a ratio to its
// subject's baseline. What does not depend on the machine is written
// here once: the cell enumeration, the per-cell policy (wall-clock
// deadline, one retry at doubled budgets, a failure folded into the
// record), the local driver (pool, journal
// replay, record, panic fold), the assembly of records into a table, and
// the type-erased Grid the schedulers outside this package drive. A
// machine (uniproc.go, mpexp.go) supplies what is left: how one attempt
// is configured and run, and how a cell's ratio follows from its
// baseline.

// Grid names tag journal cell records and address cells on the wire, so
// one journal can hold both grids of a run without index collisions.
const (
	GridWorkstation    = "workstation"
	GridMultiprocessor = "multiprocessor"
)

// cellSpec addresses one cell of a grid. A cell's index in its grid's
// enumeration is its address everywhere — journal key, wire address — so
// the in-process pool, a journal replay and the distributed service all
// mean the same simulation by the same number. Its seed is no part of
// the address: it derives from the cell's configuration (cell.go).
type cellSpec struct {
	subject  string // workload mix or application
	scheme   core.Scheme
	contexts int
}

func (sp cellSpec) baseline() bool { return sp.scheme == core.Single && sp.contexts == 1 }

// design is the part of a grid config the shared core reads.
type design struct {
	subjects    []string
	schemes     []core.Scheme
	contexts    []int
	parallelism int
	timeout     time.Duration
	guard       guard.Options
}

// cellAttempt is what the per-cell policy resolves for one attempt of
// one cell; the machine turns it into a simulator configuration.
type cellAttempt struct {
	cellSpec
	// guard carries the run's hardening options with the liveness
	// window already doubled escalation times; the machine decorrelates
	// the chaos stream when it seeds the cell.
	guard guard.Options
	// escalation is the number of times the machine's own budgets (the
	// multiprocessor cycle limit) double: zero on the first attempt.
	escalation int
}

// CellOutcome is the part of a cell record both machines share: how the
// cell ended rather than what it measured. Failed cells are journaled
// too (nothing measured, Failure and Diagnostic set), so a resume does
// not re-run a deterministic failure. Retried marks a cell whose first
// attempt tripped a budget and was re-run; the record is the retry's.
type CellOutcome struct {
	Failed     bool   `json:"failed,omitempty"`
	Failure    string `json:"failure,omitempty"`
	Diagnostic string `json:"diagnostic,omitempty"`
	Retried    bool   `json:"retried,omitempty"`
}

// CellStatus is the part of an assembled table cell both machines share.
type CellStatus struct {
	// Failed marks a cell whose simulation errored (watchdog trip,
	// deadline, invariant violation, cycle budget, panic); Failure is the
	// one-line error and Diagnostic the structured dump when one was
	// attached. The rest of the grid is unaffected (graceful degradation).
	Failed     bool
	Failure    string
	Diagnostic string

	// Retried marks a cell whose first attempt tripped the liveness
	// watchdog or its deadline and was deterministically re-run at
	// doubled budgets; the recorded outcome is the retry's.
	Retried bool `json:",omitempty"`

	// Skipped marks a cell that never completed because the run was
	// interrupted (SIGINT/SIGTERM drain or first-error cancellation).
	// Skipped cells carry no measurement and no failure diagnosis.
	Skipped bool `json:",omitempty"`

	// Metrics is the cell's observability record, nil unless the
	// config's Obs enabled instrumentation.
	Metrics *metrics.CellMetrics `json:",omitempty"`
}

func (s CellStatus) status() CellStatus { return s }

// tableCell is what the core reads of a machine's assembled cell.
type tableCell interface {
	at() cellSpec
	ratio() float64 // to the subject's baseline; 0 when there is none
	status() CellStatus
}

// tally is a grid's records folded into table cells.
type tally[T any] struct {
	cells             []T
	failures, skipped int
}

// section is one -only name a grid backs, with the exact bytes it
// contributes to stdout.
type section[Res any] struct {
	name   string
	render func(*Res) string
}

// machine is everything that differs between the two evaluations. C is
// the grid config, R the journal/wire record of one cell, T its
// assembled table cell and Res the evaluation result holding the table.
type machine[C, R any, T tableCell, Res any] struct {
	name     string
	sections []section[Res]
	// design reads the shared fields out of a config; lookup reports
	// whether a subject it names exists.
	design func(C) design
	lookup func(subject string) error
	// attempt configures and runs one attempt of a cell and returns the
	// record of a successful one; replayed enters a successful record,
	// read back from a journal, into the run's memo under the key attempt
	// a would have simulated it under.
	attempt  func(ctx context.Context, cfg C, a cellAttempt) (*R, error)
	replayed func(ctx context.Context, cfg C, a cellAttempt, rec *R)
	// outcome is the record's shared part; measured reports whether the
	// record carries a result.
	outcome  func(*R) *CellOutcome
	measured func(*R) bool
	// cell renders one table cell. rec is nil unless the cell was
	// measured; base is its subject's measured baseline, nil if lost.
	cell   func(sp cellSpec, st CellStatus, rec, base *R) T
	result func(C, tally[T]) *Res
}

// grid is a machine bound to one config: the cells it enumerates.
type grid[C, R any, T tableCell, Res any] struct {
	*machine[C, R, T, Res]
	cfg   C
	d     design
	cells []cellSpec
	sel   func(string) bool // the sections Assemble and Run render
}

// bind enumerates cfg's grid in its canonical order: per subject, the
// single-context baseline first, then schemes × context counts.
func (m *machine[C, R, T, Res]) bind(cfg C) (*grid[C, R, T, Res], error) {
	g := &grid[C, R, T, Res]{machine: m, cfg: cfg, d: m.design(cfg), sel: Selection(nil)}
	for _, subject := range g.d.subjects {
		if err := m.lookup(subject); err != nil {
			return nil, err
		}
		g.cells = append(g.cells, cellSpec{subject, core.Single, 1})
		for _, s := range g.d.schemes {
			for _, n := range g.d.contexts {
				g.cells = append(g.cells, cellSpec{subject, s, n})
			}
		}
	}
	return g, nil
}

func (m *machine[C, R, T, Res]) size(cfg C) (int, error) {
	g, err := m.bind(cfg)
	if err != nil {
		return 0, err
	}
	return len(g.cells), nil
}

func (m *machine[C, R, T, Res]) runCell(ctx context.Context, cfg C, index int) (*R, error) {
	g, err := m.bind(cfg)
	if err != nil {
		return nil, err
	}
	return g.runCell(ctx, index)
}

func (m *machine[C, R, T, Res]) assemble(cfg C, recs []*R) (*Res, error) {
	g, err := m.bind(cfg)
	if err != nil {
		return nil, err
	}
	t, err := g.tabulate(recs)
	if err != nil {
		return nil, err
	}
	return m.result(cfg, t), nil
}

func (m *machine[C, R, T, Res]) run(ctx context.Context, cfg C, j *Journal) (*Res, error) {
	g, err := m.bind(cfg)
	if err != nil {
		return nil, err
	}
	t, err := g.run(ctx, j)
	if err != nil {
		return nil, err
	}
	return m.result(cfg, t), nil
}

func (m *machine[C, R, T, Res]) sectionNames() []string {
	names := make([]string, len(m.sections))
	for i, s := range m.sections {
		names[i] = s.name
	}
	return names
}

func (m *machine[C, R, T, Res]) selected(sel func(string) bool) bool {
	for _, s := range m.sections {
		if sel(s.name) {
			return true
		}
	}
	return false
}

// render is the sections the selection asks for, byte-identical to what
// cmd/experiments prints for them.
func (m *machine[C, R, T, Res]) render(sel func(string) bool, res *Res) string {
	var b strings.Builder
	for _, s := range m.sections {
		if sel(s.name) {
			b.WriteString(s.render(res))
		}
	}
	return b.String()
}

// attemptOf resolves attempt n (1-based) of cell i. A re-run doubles the
// liveness window — a budget trip can mean "slower than the window", not
// "wedged" — and keeps the cell's seed and chaos stream, which the
// machine derives from the configuration with its budgets removed.
func (g *grid[C, R, T, Res]) attemptOf(i, n int) cellAttempt {
	a := cellAttempt{cellSpec: g.cells[i], guard: g.d.guard, escalation: n - 1}
	a.guard.WatchdogWindow = guard.Escalate(a.guard.WatchdogWindow, a.escalation)
	return a
}

// valid is the one rule for a cell record: it records a diagnosed
// failure or carries a result. Anything else — a truncated or forged
// payload that still decodes — is no outcome at all.
func (g *grid[C, R, T, Res]) valid(rec *R) bool {
	return g.outcome(rec).Failed || g.measured(rec)
}

// failed is the record of a cell that ended in err.
func (g *grid[C, R, T, Res]) failed(err error, retried bool) *R {
	rec := new(R)
	failure, diagnostic := failureStrings(err)
	*g.outcome(rec) = CellOutcome{Failed: true, Failure: failure, Diagnostic: diagnostic, Retried: retried}
	return rec
}

// runCell simulates cell i and returns its record. It is the single copy
// of the per-cell policy: a liveness-watchdog trip or a missed deadline
// is retried once at doubled budgets, and whatever failure remains is
// folded into the record. The only non-nil errors are a bad index and a
// cancellation of ctx itself (the cell was drained, not diagnosed).
func (g *grid[C, R, T, Res]) runCell(ctx context.Context, i int) (*R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if i < 0 || i >= len(g.cells) {
		return nil, fmt.Errorf("experiments: %s cell %d outside grid [0,%d)", g.name, i, len(g.cells))
	}
	attempt := func(n int) (*R, error) {
		return g.attempt(withCellBudget(ctx, g.d.timeout, n), g.cfg, g.attemptOf(i, n))
	}
	policy := guard.GridRetry()
	n := 1
	rec, err := attempt(n)
	for err != nil && guard.IsBudgetTrip(err) && ctx.Err() == nil && policy.Allowed(n+1) {
		n++
		rec, err = attempt(n)
	}
	if err != nil {
		if guard.IsCancellation(err) && ctx.Err() != nil {
			return nil, err // drained mid-cell: renders as SKIP, not journaled
		}
		return g.failed(err, n > 1), nil
	}
	g.outcome(rec).Retried = n > 1
	return rec, nil
}

// run is the local driver: the cells fan out across the config's
// Parallelism, a journal replays the cells it holds and records the
// rest, a drained cell stays nil (SKIP) and a panic the pool recovered
// becomes that cell's failed record. Every cell derives its seed from its
// configuration and lands in its own slot, so the table is byte-identical
// at any parallelism.
func (g *grid[C, R, T, Res]) run(ctx context.Context, j *Journal) (tally[T], error) {
	recs := make([]*R, len(g.cells))
	panics := runCellsAll(ctx, g.d.parallelism, len(recs), func(ctx context.Context, i int) error {
		// A journaled record that is no outcome re-runs, like a torn one.
		// A measured one is the run's result for its cell, so a study of
		// the same run shares it instead of simulating it again; a retried
		// one came from the last attempt the retry policy allows.
		if raw, ok := j.Replay(g.name, i); ok {
			if rec, err := g.decode(raw); err == nil {
				recs[i] = rec
				if out := g.outcome(rec); !out.Failed {
					n := 1
					if out.Retried {
						n = guard.GridRetry().Attempts
					}
					g.replayed(ctx, g.cfg, g.attemptOf(i, n), rec)
				}
				return nil
			}
		}
		rec, err := g.runCell(ctx, i)
		if err != nil {
			return nil // drained mid-cell
		}
		recs[i] = rec
		j.Record(g.name, i, rec)
		return nil
	})
	for _, p := range panics {
		recs[p.Index] = g.failed(p.Err, false)
		j.Record(g.name, p.Index, recs[p.Index])
	}
	t, err := g.tabulate(recs)
	if err == nil {
		// A journal that cannot record is a hard error: continuing
		// silently would fake crash safety.
		err = j.Err()
	}
	return t, err
}

// tabulate folds index-ordered records into table cells. A nil record is
// a cell that never completed and renders as SKIP; a failed record — or
// one that is no outcome — renders as FAIL, and a lost baseline zeroes
// its subject's ratios but costs nothing else. It is pure: the
// coordinator calls it over journal-replayed records and gets the bytes
// a single-process run prints.
func (g *grid[C, R, T, Res]) tabulate(recs []*R) (tally[T], error) {
	var t tally[T]
	if len(recs) != len(g.cells) {
		return t, fmt.Errorf("experiments: %s grid has %d cells, got %d records", g.name, len(g.cells), len(recs))
	}
	var base *R
	for i, sp := range g.cells {
		rec, st := recs[i], CellStatus{}
		switch {
		case rec == nil:
			st.Skipped = true
			t.skipped++
		case g.outcome(rec).Failed || !g.measured(rec):
			o := g.outcome(rec)
			st = CellStatus{Failed: true, Failure: o.Failure, Diagnostic: o.Diagnostic, Retried: o.Retried}
			if st.Failure == "" {
				st.Failure = "cell record carries no result"
			}
			t.failures++
			rec = nil
		default:
			st.Retried = g.outcome(rec).Retried
		}
		if sp.baseline() {
			base = rec
		}
		t.cells = append(t.cells, g.cell(sp, st, rec, base))
	}
	return t, nil
}

// findCell returns the table cell at (subject, scheme, contexts).
func findCell[T tableCell](cells []T, at cellSpec) (T, bool) {
	for _, c := range cells {
		if c.at() == at {
			return c, true
		}
	}
	var none T
	return none, false
}

// meanRatio is the geometric mean across subjects of the (s, n) cells'
// ratios — the Mean column of Tables 7 and 10 — with its coverage: used
// is the number of cells that entered the mean, total the number of
// (s, n) cells in the grid. Failed and skipped cells and cells without a
// positive ratio (e.g. a lost baseline) are excluded from the mean
// rather than dragged in as zeros.
func meanRatio[T tableCell](cells []T, s core.Scheme, n int) (mean float64, used, total int) {
	var xs []float64
	for _, c := range cells {
		if at := c.at(); at.scheme == s && at.contexts == n {
			total++
			if st := c.status(); !st.Failed && !st.Skipped {
				xs = append(xs, c.ratio())
			}
		}
	}
	mean, skipped := stats.GeoMean(xs)
	return mean, len(xs) - skipped, total
}

// formatRatioTable renders the paper's Table 7 or Table 10: one row per
// (contexts, scheme), one column per subject, each cell its ratio to the
// subject's single-context baseline.
func formatRatioTable[T tableCell](heading, noun string, subjects []string, contexts []int, cells []T) string {
	var b strings.Builder
	b.WriteString(heading)
	header := append([]string{"Contexts", "Scheme"}, subjects...)
	t := stats.NewTable(append(header, "Mean")...)
	var usedSum, totalSum int
	for _, n := range contexts {
		for _, s := range []core.Scheme{core.Interleaved, core.Blocked} {
			row := []string{fmt.Sprintf("%d", n), s.String()}
			found := false
			for _, subject := range subjects {
				c, ok := findCell(cells, cellSpec{subject, s, n})
				switch st := c.status(); {
				case !ok:
					row = append(row, "-")
				case st.Skipped:
					row = append(row, "SKIP")
				case st.Failed:
					row = append(row, "FAIL")
				default:
					row = append(row, stats.Ratio(c.ratio()))
				}
				found = found || ok
			}
			if !found {
				continue
			}
			mean, used, total := meanRatio(cells, s, n)
			usedSum += used
			totalSum += total
			t.AddRow(append(row, stats.Ratio(mean))...)
		}
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nMean: geometric mean over cells with a positive %s (%d of %d cells).\n", noun, usedSum, totalSum)
	return b.String()
}

// Grid is one grid of one config as a scheduler sees it: cells addressed
// by index, records as opaque JSON. It is what the coordinator, the
// worker and the commands drive, so that none of them knows a record
// format.
type Grid interface {
	// Name tags the grid's records in a journal, on the wire and in the
	// -json blob.
	Name() string
	// Size is the number of cells: the valid indices are [0, Size).
	Size() int
	// RunCell simulates cell i under the shared per-cell policy. A failed
	// cell is a record, not an error: the only errors are a bad index and
	// a cancelled ctx (no record — the cell was drained).
	RunCell(ctx context.Context, i int) (json.RawMessage, error)
	// Validate reports whether raw is a cell's outcome — a result or a
	// diagnosed failure — and which. Anything else is an error and the
	// cell it claims to settle must be run again.
	Validate(raw json.RawMessage) (failed bool, err error)
	// FailedRecord is the record of a cell given up on outside any
	// simulation (a dispatcher out of attempts).
	FailedRecord(reason string) json.RawMessage
	// Assemble folds index-ordered records into the grid's report; a nil
	// record is a cell that never completed and renders as SKIP.
	Assemble(recs []json.RawMessage) (*GridReport, error)
	// Run is the in-process driver: cells across the config's
	// Parallelism, replayed from and recorded to j when it is non-nil.
	// Cancelling ctx drains the grid; unfinished cells render as SKIP.
	Run(ctx context.Context, j *Journal) (*GridReport, error)
}

// GridReport is an assembled grid.
type GridReport struct {
	// Text is the selected sections exactly as cmd/experiments prints
	// them; Value is what its -json carries under the grid's name.
	Text  string
	Value any
	// Failures and Skipped count the cells that failed and the cells an
	// interrupted run never completed.
	Failures, Skipped int
	Cells             []CellReport
}

// CellReport is one cell of a GridReport: where it sits and how it ended.
type CellReport struct {
	Subject  string
	Scheme   core.Scheme
	Contexts int
	CellStatus
}

func (g *grid[C, R, T, Res]) Name() string { return g.name }
func (g *grid[C, R, T, Res]) Size() int    { return len(g.cells) }

func (g *grid[C, R, T, Res]) RunCell(ctx context.Context, i int) (json.RawMessage, error) {
	rec, err := g.runCell(ctx, i)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rec)
}

func (g *grid[C, R, T, Res]) Validate(raw json.RawMessage) (failed bool, err error) {
	rec, err := g.decode(raw)
	if err != nil {
		return false, err
	}
	return g.outcome(rec).Failed, nil
}

// decode is the grid's one rule for a journaled record: it must decode
// into the grid's record and be a cell's outcome. Both drivers replay
// through it, the local one (run) and the coordinator (Validate).
func (g *grid[C, R, T, Res]) decode(raw json.RawMessage) (*R, error) {
	rec := new(R)
	if err := json.Unmarshal(raw, rec); err != nil {
		return nil, err
	}
	if !g.valid(rec) {
		return nil, fmt.Errorf("experiments: %s record carries neither result nor failure", g.name)
	}
	return rec, nil
}

func (g *grid[C, R, T, Res]) FailedRecord(reason string) json.RawMessage {
	raw, _ := json.Marshal(g.failed(errors.New(reason), false)) // a zero record plus two plain fields: cannot fail
	return raw
}

func (g *grid[C, R, T, Res]) Assemble(raws []json.RawMessage) (*GridReport, error) {
	recs := make([]*R, len(raws))
	for i, raw := range raws {
		if raw == nil {
			continue
		}
		recs[i] = new(R)
		if err := json.Unmarshal(raw, recs[i]); err != nil {
			return nil, fmt.Errorf("experiments: %s cell %d: %w", g.name, i, err)
		}
	}
	t, err := g.tabulate(recs)
	if err != nil {
		return nil, err
	}
	return g.report(t), nil
}

func (g *grid[C, R, T, Res]) Run(ctx context.Context, j *Journal) (*GridReport, error) {
	t, err := g.run(ctx, j)
	if err != nil {
		return nil, err
	}
	return g.report(t), nil
}

func (g *grid[C, R, T, Res]) report(t tally[T]) *GridReport {
	res := g.result(g.cfg, t)
	rep := &GridReport{Text: g.render(g.sel, res), Value: res, Failures: t.failures, Skipped: t.skipped}
	for _, c := range t.cells {
		sp := c.at()
		rep.Cells = append(rep.Cells, CellReport{sp.subject, sp.scheme, sp.contexts, c.status()})
	}
	return rep
}

// Grids maps an -only selection and the two grid configs to the grids
// the selection runs, in evaluation order, and to the journal
// fingerprint of that run: only the configs of the grids that run enter
// it. A nil config means the caller has none for that machine — an empty
// selection then leaves the grid out, a selection naming one of its
// sections is an error. Names that are no grid's section select nothing
// here (cmd/experiments has other experiments under them).
func Grids(only []string, uni *UniConfig, mp *MPConfig) ([]Grid, Fingerprint, error) {
	sel := Selection(only)
	var grids []Grid
	uni, err := selectGrid(&grids, workstationGrid, sel, only, uni)
	if err == nil {
		mp, err = selectGrid(&grids, multiprocessorGrid, sel, only, mp)
	}
	if err != nil {
		return nil, Fingerprint{}, err
	}
	return grids, NewFingerprint(uni, mp, only), nil
}

// selectGrid appends m's grid under *cfg when the selection runs it, and
// returns the config it ran under: nil when the grid is left out.
func selectGrid[C, R any, T tableCell, Res any](grids *[]Grid, m *machine[C, R, T, Res], sel func(string) bool, only []string, cfg *C) (*C, error) {
	if !m.selected(sel) || (cfg == nil && len(only) == 0) {
		return nil, nil
	}
	if cfg == nil {
		return nil, fmt.Errorf("experiments: selection needs the %s grid but there is no config for it", m.name)
	}
	g, err := m.bind(*cfg)
	if err != nil {
		return nil, err
	}
	g.sel = sel
	*grids = append(*grids, g)
	return cfg, nil
}

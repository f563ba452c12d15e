package experiments

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"

	"repro/internal/faultfs"
	"repro/internal/snapshot"
)

// Exit codes shared by the simulation commands, documented in
// EXPERIMENTS.md. Flag-parse failures exit 2 (the flag package's
// convention); everything else is explicit.
const (
	// ExitSuccess: every selected experiment completed with no failed cell.
	ExitSuccess = 0
	// ExitFailure: at least one cell failed, or any other error.
	ExitFailure = 1
	// ExitUsage: command-line parse error.
	ExitUsage = 2
	// ExitInterrupted: a SIGINT/SIGTERM drain stopped the run; completed
	// cells were flushed (journal, partial tables, -json) and the rest
	// rendered as SKIP.
	ExitInterrupted = 3
	// ExitFingerprintMismatch: -resume was given a journal recorded in
	// another format version, under another configuration or by another
	// binary (*FingerprintError).
	ExitFingerprintMismatch = 4
)

// JournalVersion is the journal file-format version; OpenJournal refuses
// files written by a different version (*FingerprintError). Version 2
// split the fingerprint into config identity (hashed) and binary
// identity (recorded in the header beside the hash). Version 3 seeds
// every cell from its configuration rather than its index in the grid,
// so a version-2 journal holds cells this binary would simulate
// differently. Version 4 drops the checkpoint stamp. Version 5 drops
// parallelism and the fingerprint's copy of the version: the header
// records only what decides a cell.
const JournalVersion = 5

// Fingerprint is what a journal's header records about the run that
// wrote it, in two parts:
//
//   - Config identity (Only, Uni, MP — everything a cell's inputs are
//     made of): Hash() covers exactly this. The header line carries the
//     format version beside it.
//   - Binary identity (Binary): recorded in the header and compared
//     beside the hash, not inside it. A rebuilt simulator may compute
//     other results for the same configuration, and the format version
//     does not always move with it.
//
// Resuming replays simulation results verbatim, so drift in either part
// is as hard an error as another format version (*FingerprintError).
type Fingerprint struct {
	Binary string     `json:"binary"`
	Only   []string   `json:"only,omitempty"`
	Uni    *UniConfig `json:"uni,omitempty"`
	MP     *MPConfig  `json:"mp,omitempty"`
}

// NewFingerprint builds the fingerprint for a cmd/experiments run over
// the given configs (either may be nil; the fingerprint refers to them,
// so they must not change while it is in use) and -only selection
// (sorted into a canonical order here, so callers need not agree on one).
func NewFingerprint(uni *UniConfig, mp *MPConfig, only []string) Fingerprint {
	sortedOnly := append([]string(nil), only...)
	sort.Strings(sortedOnly)
	if len(sortedOnly) == 0 {
		sortedOnly = nil
	}
	return Fingerprint{Binary: binaryVersion(), Only: sortedOnly, Uni: uni, MP: mp}
}

// Hash digests the fingerprint's *config identity*: configSum with the
// binary identity blanked. Two runs of the same configuration hash
// identically at every -j and across binaries; OpenJournal compares the
// binary beside the hash.
func (fp Fingerprint) Hash() string {
	fp.Binary = ""
	sum := configSum(fp)
	return hex.EncodeToString(sum[:12])
}

// binaryVersion identifies the running binary for the fingerprint: the
// main module version plus the VCS revision when the build recorded one.
// `go run` and test builds carry no VCS stamp and all read "(devel)", so
// the binary check tells apart only VCS-stamped builds.
// Read once: a worker resolves a spec, fingerprint included, per lease.
var binaryVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			v += "+" + s.Value
		}
	}
	if v == "" {
		v = "unknown"
	}
	return v
})

// FingerprintError is the one error OpenJournal returns when a journal
// may not replay: it was written in another format version, under
// another configuration or by another binary, and none of its cells is
// known to be what this run would compute. cmd/experiments maps it to
// ExitFingerprintMismatch; the service coordinator starts that job's
// journal afresh and re-runs its cells.
type FingerprintError struct {
	Path string
	What string // what differed: "format version", "configuration" or "binary"
	Want string // this run's value
	Got  string // the value recorded in the journal header
}

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("journal %s was recorded under %s %s, this run's is %s — resume with the flags and build of the original run, or start a fresh journal with -journal",
		e.Path, e.What, e.Got, e.Want)
}

// HeaderNotWrittenError is returned by OpenJournal and ReadFingerprint
// when the file holds no complete first line: it is empty, or its header
// was cut short before the newline, as a failed header write in
// CreateJournal leaves it. No cell was recorded after such a header and
// no job was acknowledged with it, so the service coordinator removes
// the file. A complete first line that is no header stays a hard error.
type HeaderNotWrittenError struct {
	Path string
}

func (e *HeaderNotWrittenError) Error() string {
	return fmt.Sprintf("experiments: journal %s has no intact header (its first line never landed); cannot resume from it", e.Path)
}

// journalLine is one JSONL record: a header (first line) or a completed
// cell. Cell data is kept raw so replay can decode straight into the
// grid-specific record type, and Hash guards against torn appends.
type journalLine struct {
	Type    string          `json:"type"`
	Version int             `json:"version,omitempty"`
	Hash    string          `json:"hash,omitempty"`
	Grid    string          `json:"grid,omitempty"`
	Index   int             `json:"index,omitempty"`
	Data    json.RawMessage `json:"data,omitempty"`
}

type journalKey struct {
	grid  string
	index int
}

// Journal is the append-only crash-safety log of a grid run: a header
// fingerprinting the configuration, then one fsynced JSONL record per
// completed cell. Appends come from concurrent cell workers; replay
// is keyed by (grid, index), so the on-disk completion order is
// irrelevant. A nil *Journal is valid everywhere and disables journaling.
type Journal struct {
	mu       sync.Mutex
	f        faultfs.File
	cells    map[journalKey]json.RawMessage
	appended int
	writeErr error
	onAppend func(appended int)
}

// AppendError is the typed failure a journal append surfaces through
// Err(): which cell could not be made durable and why. The distinction
// matters to callers — a failed Sync means the record's bytes may be in
// the file but are NOT durable, so the cell must not be acknowledged;
// recovery is reopen-and-truncate (OpenJournal), which restores the
// pre-append state.
type AppendError struct {
	Grid  string
	Index int
	Err   error
}

func (e *AppendError) Error() string {
	return fmt.Sprintf("experiments: journal cell %s/%d: %v", e.Grid, e.Index, e.Err)
}

func (e *AppendError) Unwrap() error { return e.Err }

// CreateJournal starts a fresh journal at path (truncating any previous
// file) and records the fingerprint header.
func CreateJournal(path string, fp Fingerprint) (*Journal, error) {
	return CreateJournalFS(nil, path, fp)
}

// CreateJournalFS is CreateJournal over an explicit filesystem; a nil
// fsys means the real one. Fault-injection harnesses pass a faultfs
// injector to exercise the journal's durability claims.
func CreateJournalFS(fsys faultfs.FS, path string, fp Fingerprint) (*Journal, error) {
	fsys = faultfs.OrOS(fsys)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: create journal: %w", err)
	}
	j := &Journal{f: f, cells: map[journalKey]json.RawMessage{}}
	fpData, err := json.Marshal(fp)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: journal fingerprint: %w", err)
	}
	header := journalLine{Type: "header", Version: JournalVersion, Hash: fp.Hash(), Data: fpData}
	if err := j.writeLineLocked(header); err != nil { // j is not shared yet
		f.Close()
		return nil, fmt.Errorf("experiments: journal header: %w", err)
	}
	return j, nil
}

// OpenJournal opens an existing journal for resuming: it holds the
// header to the one replay rule (replayable), loads every intact cell
// record for replay, and positions the file for appending.
//
// Corruption tolerance: a crash mid-append leaves at most one torn tail
// — a truncated line, trailing garbage, or a record whose payload hash
// does not match. Reading stops at the first such record; the cells
// before it replay, the torn cell simply re-runs, and the file is
// truncated back to its last intact record so new appends start on a
// clean line. A line counts only once its newline has landed, and no
// length is too long for one. A missing or corrupt *header* is not
// tolerated: there is nothing safe to resume (*HeaderNotWrittenError
// when no first line landed at all). A read error is returned as it is,
// and the file is left untouched.
func OpenJournal(path string, fp Fingerprint) (*Journal, error) {
	return OpenJournalFS(nil, path, fp)
}

// OpenJournalFS is OpenJournal over an explicit filesystem; a nil fsys
// means the real one.
func OpenJournalFS(fsys faultfs.FS, path string, fp Fingerprint) (*Journal, error) {
	fsys = faultfs.OrOS(fsys)
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: open journal: %w", err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 1<<16)
	header, validOff, err := readHeader(r, path)
	if err != nil {
		return nil, err
	}
	if err := replayable(path, header, fp); err != nil {
		return nil, err
	}
	cells := map[journalKey]json.RawMessage{}
	for {
		raw, err := r.ReadBytes('\n')
		if err == io.EOF {
			break // an unterminated last line is torn, even if it parses
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: read journal %s: %w", path, err)
		}
		var line journalLine
		if json.Unmarshal(raw, &line) != nil || line.Type != "cell" || line.Index < 0 || DataHash(line.Data) != line.Hash {
			break // torn, garbage or unknown: everything from here on is lost
		}
		cells[journalKey{line.Grid, line.Index}] = line.Data
		validOff += int64(len(raw))
	}

	// Drop the torn tail (if any) so appends start on a record boundary,
	// then reopen for appending.
	if err := fsys.Truncate(path, validOff); err != nil {
		return nil, fmt.Errorf("experiments: truncate journal tail: %w", err)
	}
	af, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: reopen journal: %w", err)
	}
	return &Journal{f: af, cells: cells}, nil
}

// ReadFingerprint returns the fingerprint a journal's header records, of
// any format version and without the replay rule: the service
// coordinator rebuilds a job from it. An unreadable header fails as in
// OpenJournal.
func ReadFingerprint(fsys faultfs.FS, path string) (Fingerprint, error) {
	f, err := faultfs.OrOS(fsys).OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return Fingerprint{}, fmt.Errorf("experiments: open journal: %w", err)
	}
	defer f.Close()
	header, _, err := readHeader(bufio.NewReader(f), path)
	if err != nil {
		return Fingerprint{}, err
	}
	return header.fingerprint(path)
}

// readHeader reads a journal's first line, which must be its header: a
// *HeaderNotWrittenError when no first line landed, a plain error when
// the line is no header. n is the line's length.
func readHeader(r *bufio.Reader, path string) (header journalLine, n int64, err error) {
	raw, err := r.ReadBytes('\n')
	switch {
	case err == io.EOF:
		err = &HeaderNotWrittenError{Path: path}
	case err != nil:
		err = fmt.Errorf("experiments: read journal %s: %w", path, err)
	case json.Unmarshal(raw, &header) != nil:
		err = fmt.Errorf("experiments: journal %s has no intact header; cannot resume from it", path)
	case header.Type != "header":
		err = fmt.Errorf("experiments: %s is not a journal (first line is %q, want header)", path, header.Type)
	}
	return header, int64(len(raw)), err
}

// fingerprint decodes the whole fingerprint a header records; its hash
// covers only the config identity.
func (h journalLine) fingerprint(path string) (rec Fingerprint, err error) {
	if err = json.Unmarshal(h.Data, &rec); err != nil {
		err = fmt.Errorf("experiments: journal %s header fingerprint does not decode: %w", path, err)
	}
	return rec, err
}

// replayable is the one rule that decides whether a journal replays:
// only under the format version, configuration fingerprint and binary
// identity that wrote it. Anything else is a *FingerprintError.
func replayable(path string, header journalLine, fp Fingerprint) error {
	if header.Version != JournalVersion {
		return &FingerprintError{Path: path, What: "format version", Want: strconv.Itoa(JournalVersion), Got: strconv.Itoa(header.Version)}
	}
	if want := fp.Hash(); header.Hash != want {
		return &FingerprintError{Path: path, What: "configuration", Want: want, Got: header.Hash}
	}
	rec, err := header.fingerprint(path)
	if err != nil {
		return err
	}
	if rec.Binary != fp.Binary {
		return &FingerprintError{Path: path, What: "binary", Want: fp.Binary, Got: rec.Binary}
	}
	return nil
}

// DataHash digests a cell record's payload (snapshot.StateHash, hex) so
// a torn append — payload truncated but the line still parsing as JSON —
// is detected and treated as "cell incomplete". Exported because the
// distributed coordinator dedups duplicate cell completions by the same
// hash, so a journaled record and a late re-delivery compare directly.
func DataHash(data []byte) string {
	return fmt.Sprintf("%016x", snapshot.StateHash(data))
}

// Cells returns how many intact cell records were loaded for replay.
func (j *Journal) Cells() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// Appended returns how many cell records this process added.
func (j *Journal) Appended() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// SetAppendHook installs fn, called (outside the journal lock) after
// every successful cell append with the running append count. The
// -interrupt-after test harness uses it to raise SIGINT partway through
// a grid; fn must not call back into the journal.
func (j *Journal) SetAppendHook(fn func(appended int)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.onAppend = fn
	j.mu.Unlock()
}

// Err returns the sticky append error, if any write failed. Grid
// drivers check it once per grid: a journal that cannot record is a
// hard error (silently continuing would fake crash safety).
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeErr
}

// Close fsyncs and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Replay returns the raw journaled payload for (grid, index), if an
// intact record was loaded or appended. Whether it is a cell's outcome
// is the grid's to judge (Grid.Validate).
func (j *Journal) Replay(grid string, index int) (json.RawMessage, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.cells[journalKey{grid, index}]
	return raw, ok
}

// Record appends (grid, index, payload) as one fsynced line and keeps
// the in-memory cell map current, so Replay sees records appended in
// this process as well as ones replayed at open — the service
// coordinator assembles final results from that map. Errors are sticky
// and typed: after the first failed append (a short write OR a failed
// Sync — either way the record is not durably on disk) the journal
// stops accepting records, the cell map is NOT updated, and Err()
// reports an *AppendError identifying the cell.
func (j *Journal) Record(grid string, index int, payload any) {
	if j == nil {
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		j.mu.Lock()
		if j.writeErr == nil {
			j.writeErr = &AppendError{Grid: grid, Index: index, Err: err}
		}
		j.mu.Unlock()
		return
	}
	line := journalLine{Type: "cell", Hash: DataHash(data), Grid: grid, Index: index, Data: data}

	j.mu.Lock()
	if j.writeErr != nil || j.f == nil {
		j.mu.Unlock()
		return
	}
	if err := j.writeLineLocked(line); err != nil {
		j.writeErr = &AppendError{Grid: grid, Index: index, Err: err}
		j.mu.Unlock()
		return
	}
	j.cells[journalKey{grid, index}] = data
	j.appended++
	n, hook := j.appended, j.onAppend
	j.mu.Unlock()
	if hook != nil {
		hook(n)
	}
}

// writeLineLocked appends one record and fsyncs — the fsync-per-record
// policy is what makes a completed cell durable against the very next
// instruction being a crash.
func (j *Journal) writeLineLocked(line journalLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime/debug"
	"sort"
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
	// ExitFingerprintMismatch: -resume was given a journal recorded under
	// a different configuration or binary.
	ExitFingerprintMismatch = 4
)

// JournalVersion is the journal file-format version; OpenJournal refuses
// files written by a different version. Version 2 split the fingerprint
// into config identity (hashed, hard error on mismatch) and binary
// identity (recorded in the header, checked separately, overridable).
const JournalVersion = 2

// Fingerprint identifies what a journal was recorded under, in two
// parts with different severities:
//
//   - Config identity (Version, Only, Uni, MP — everything that
//     determines cell results): Hash() covers exactly this. Resuming
//     replays simulation results verbatim, so any config drift is a
//     hard error (*FingerprintError).
//   - Binary identity (Binary): recorded in the header and compared
//     separately. Results are a function of the config, not of which
//     binary ran it — cmd/experiments, cmd/expworker and a rebuilt tree
//     all simulate identically — so a mismatch is refusable-by-default
//     (*BinaryMismatchError) but explicitly overridable
//     (-allow-binary-mismatch; the service coordinator always allows it).
type Fingerprint struct {
	Version int        `json:"version"`
	Binary  string     `json:"binary"`
	Only    []string   `json:"only,omitempty"`
	Uni     *UniConfig `json:"uni,omitempty"`
	MP      *MPConfig  `json:"mp,omitempty"`
	// Checkpoint stamps runs with warm-up forking enabled: a resumed run
	// must agree on both the decision to fork and the snapshot codec
	// speaking for any reused on-disk checkpoints. Forked and
	// from-scratch cells are byte-identical, so this is provenance
	// hygiene, not a correctness requirement — but it keeps one journal
	// from silently mixing the two regimes.
	Checkpoint *CheckpointStamp `json:"checkpoint,omitempty"`
}

// CheckpointStamp records how a run's checkpoints were produced.
type CheckpointStamp struct {
	CodecVersion int `json:"codec_version"`
}

// NewFingerprint builds the fingerprint for a cmd/experiments run over
// the given configs (either may be nil) and -only selection (sorted into
// a canonical order here, so callers need not agree on one). Parallelism
// is zeroed in the copies: results are byte-identical at every -j, so a
// resume at a different worker count is legitimate.
func NewFingerprint(uni *UniConfig, mp *MPConfig, only []string) Fingerprint {
	sortedOnly := append([]string(nil), only...)
	sort.Strings(sortedOnly)
	if len(sortedOnly) == 0 {
		sortedOnly = nil
	}
	fp := Fingerprint{Version: JournalVersion, Binary: binaryVersion(), Only: sortedOnly}
	if uni != nil {
		u := *uni
		u.Parallelism = 0
		u.Journal = nil
		if !u.Checkpoint.Disabled {
			fp.Checkpoint = &CheckpointStamp{CodecVersion: snapshot.Version}
		}
		u.Checkpoint = CheckpointOptions{}
		fp.Uni = &u
	}
	if mp != nil {
		m := *mp
		m.Parallelism = 0
		m.Journal = nil
		fp.MP = &m
	}
	return fp
}

// Hash digests the fingerprint's *config identity*: its canonical JSON
// encoding with the binary identity blanked. Two runs of the same
// configuration hash identically even across binaries — the binary
// comparison is a separate, softer check (see OpenJournalAllow).
func (fp Fingerprint) Hash() string {
	fp.Binary = ""
	data, err := json.Marshal(fp)
	if err != nil {
		// Fingerprint contents are plain config structs; Marshal cannot
		// fail on them. Degrade to a never-matching hash just in case.
		return "unhashable:" + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

// binaryVersion identifies the running binary for the fingerprint: the
// main module version plus the VCS revision when the build recorded one.
// Test binaries and `go run` builds without VCS stamping all report
// "(devel)", which is correct — they are rebuilt from the same tree.
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

// FingerprintError is the hard, diagnosable error OpenJournal returns
// when a journal was recorded under a different configuration or binary;
// cmd/experiments maps it to ExitFingerprintMismatch.
type FingerprintError struct {
	Path string
	Want string // hash of the current run's configuration
	Got  string // hash recorded in the journal header
}

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("journal %s was recorded under a different configuration: header fingerprint %s, this run's %s — resume with the exact flags of the original run, or start a fresh journal with -journal",
		e.Path, e.Got, e.Want)
}

// BinaryMismatchError is returned by OpenJournal when a journal's config
// identity matches but it was written by a different binary (e.g. a
// cmd/expworker journal resumed under cmd/experiments, or a rebuilt
// tree). Results depend only on the configuration, so the caller may
// deliberately proceed with OpenJournalAllow / -allow-binary-mismatch;
// refusing is merely the conservative default.
type BinaryMismatchError struct {
	Path string
	Want string // binary identity of the current run
	Got  string // binary identity recorded in the journal header
}

func (e *BinaryMismatchError) Error() string {
	return fmt.Sprintf("journal %s was written by a different binary (%s; this is %s) under an identical configuration — results replay verbatim; pass -allow-binary-mismatch to resume anyway",
		e.Path, e.Got, e.Want)
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
	fs       faultfs.FS
	path     string
	cells    map[journalKey]json.RawMessage
	appended int
	replayed int
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
	j := &Journal{f: f, fs: fsys, path: path, cells: map[journalKey]json.RawMessage{}}
	fpData, err := json.Marshal(fp)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: journal fingerprint: %w", err)
	}
	header := journalLine{Type: "header", Version: JournalVersion, Hash: fp.Hash(), Data: fpData}
	if err := j.writeLine(header); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: journal header: %w", err)
	}
	return j, nil
}

// OpenJournal opens an existing journal for resuming: it validates the
// header against fp — a config mismatch is a *FingerprintError, a
// binary mismatch a *BinaryMismatchError — loads every intact cell
// record for replay, and positions the file for appending.
//
// Corruption tolerance: a crash mid-append leaves at most one torn tail
// — a truncated line, trailing garbage, or a record whose payload hash
// does not match. Reading stops at the first such record; the cells
// before it replay, the torn cell simply re-runs, and the file is
// truncated back to its last intact record so new appends start on a
// clean line. A missing or corrupt *header* is not tolerated: there is
// nothing safe to resume.
func OpenJournal(path string, fp Fingerprint) (*Journal, error) {
	return OpenJournalAllow(path, fp, false, nil)
}

// OpenJournalAllow is OpenJournal with an explicit binary-identity
// policy: with allowBinaryMismatch set, a journal written by a different
// binary under an identical configuration resumes anyway, reporting the
// drift through warnf (when non-nil) instead of failing. Config
// mismatches remain hard errors in every mode — replayed cells would
// silently disagree with what this run would simulate.
func OpenJournalAllow(path string, fp Fingerprint, allowBinaryMismatch bool, warnf func(format string, args ...any)) (*Journal, error) {
	return OpenJournalAllowFS(nil, path, fp, allowBinaryMismatch, warnf)
}

// OpenJournalAllowFS is OpenJournalAllow over an explicit filesystem; a
// nil fsys means the real one.
func OpenJournalAllowFS(fsys faultfs.FS, path string, fp Fingerprint, allowBinaryMismatch bool, warnf func(format string, args ...any)) (*Journal, error) {
	fsys = faultfs.OrOS(fsys)
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: open journal: %w", err)
	}
	defer f.Close()

	cells := map[journalKey]json.RawMessage{}
	var validOff int64
	sawHeader := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		raw := sc.Bytes()
		var line journalLine
		if err := json.Unmarshal(raw, &line); err != nil {
			break // torn or garbage line: everything from here on is lost
		}
		if !sawHeader {
			if line.Type != "header" {
				return nil, fmt.Errorf("experiments: %s is not a journal (first line is %q, want header)", path, line.Type)
			}
			if line.Version != JournalVersion {
				return nil, fmt.Errorf("experiments: journal %s has format version %d, this binary writes %d", path, line.Version, JournalVersion)
			}
			if want := fp.Hash(); line.Hash != want {
				return nil, &FingerprintError{Path: path, Want: want, Got: line.Hash}
			}
			// Config identity matches; check binary identity separately.
			// The header Data carries the full recorded fingerprint, so
			// the writer's binary is recoverable even though the hash
			// deliberately excludes it.
			var hdr Fingerprint
			if err := json.Unmarshal(line.Data, &hdr); err != nil {
				return nil, fmt.Errorf("experiments: journal %s header fingerprint does not decode: %w", path, err)
			}
			if hdr.Binary != fp.Binary {
				if !allowBinaryMismatch {
					return nil, &BinaryMismatchError{Path: path, Want: fp.Binary, Got: hdr.Binary}
				}
				if warnf != nil {
					warnf("journal %s was written by binary %s (this is %s); configuration is identical, results replay verbatim",
						path, hdr.Binary, fp.Binary)
				}
			}
			sawHeader = true
			validOff += int64(len(raw)) + 1
			continue
		}
		if line.Type != "cell" || line.Index < 0 || DataHash(line.Data) != line.Hash {
			break // unknown type or torn payload: treat as incomplete
		}
		cells[journalKey{line.Grid, line.Index}] = line.Data
		validOff += int64(len(raw)) + 1
	}
	if !sawHeader {
		return nil, fmt.Errorf("experiments: journal %s has no intact header; cannot resume from it", path)
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
	return &Journal{f: af, fs: fsys, path: path, cells: cells}, nil
}

// DataHash digests a cell record's payload (FNV-1a, hex) so a torn
// append — payload truncated but the line still parsing as JSON — is
// detected and treated as "cell incomplete". Exported because the
// distributed coordinator dedups duplicate cell completions by the same
// hash, so a journaled record and a late re-delivery compare directly.
func DataHash(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// Path returns the journal's file path.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
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

// Replayed returns how many cells were served from the journal instead
// of being re-simulated.
func (j *Journal) Replayed() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replayed
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

// ReplayRaw returns the raw journaled payload for (grid, index), if an
// intact record was loaded. The service coordinator uses it to rebuild
// its dedup hashes and completion stream across a restart without a
// decode/re-encode round trip.
func (j *Journal) ReplayRaw(grid string, index int) (json.RawMessage, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.cells[journalKey{grid, index}]
	return raw, ok
}

// Replay looks up (grid, index) and decodes it into rec, counting a hit.
func (j *Journal) Replay(grid string, index int, rec any) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	raw, ok := j.cells[journalKey{grid, index}]
	j.mu.Unlock()
	if !ok {
		return false
	}
	if err := json.Unmarshal(raw, rec); err != nil {
		return false // undecodable record: re-run the cell
	}
	j.mu.Lock()
	j.replayed++
	j.mu.Unlock()
	return true
}

// Record appends (grid, index, payload) as one fsynced line and keeps
// the in-memory cell map current, so ReplayRaw sees records appended in
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

func (j *Journal) writeLine(line journalLine) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLineLocked(line)
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

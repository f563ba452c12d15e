package faultfs

import (
	"fmt"
	"io/fs"
	"sync"
	"syscall"

	"repro/internal/seeded"
)

// FaultKind classifies one injected disk failure.
type FaultKind int

const (
	// FaultTornWrite: a Write persists only its first k bytes, then
	// errors — the on-disk effect of a crash (or sector failure) mid
	// write.
	FaultTornWrite FaultKind = iota
	// FaultFailedSync: Sync returns EIO. Data written since the last
	// successful sync has unknown durability (in the Mem model: it is
	// NOT durable).
	FaultFailedSync
	// FaultENOSPC: the device runs out of space after a byte budget.
	// The write crossing the budget is short and returns ENOSPC; every
	// later write fails outright until the injector is rebuilt (the
	// operator freed space before restarting).
	FaultENOSPC
)

// String names the fault for schedules and reports.
func (k FaultKind) String() string {
	switch k {
	case FaultTornWrite:
		return "torn-write"
	case FaultFailedSync:
		return "failed-sync"
	case FaultENOSPC:
		return "enospc"
	default:
		return fmt.Sprintf("diskfault(%d)", int(k))
	}
}

// DiskFaultKinds lists every injectable disk fault class, for coverage
// accounting.
var DiskFaultKinds = []FaultKind{FaultTornWrite, FaultFailedSync, FaultENOSPC}

// Fault describes one injected failure, delivered to the OnFault hook.
type Fault struct {
	Kind    FaultKind
	Path    string
	Ordinal int64 // which write/sync (1-based, per class counter) fired
	Kept    int   // torn write: bytes that did persist
}

// InjectedError wraps the errno-shaped failure an injected fault
// returns, so tests can both errors.Is it against syscall.EIO/ENOSPC
// (like real callers would see) and recognize it as injected.
type InjectedError struct {
	Fault Fault
	Err   error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultfs: injected %v on %s (op %d): %v", e.Fault.Kind, e.Fault.Path, e.Fault.Ordinal, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// Injector wraps an FS and executes a seeded.Plan over its three
// counters, each 1-based and counting only operations on paths the filter
// matches: a torn-write event tears the At-th Write, of which only Arg
// bytes (mod the write's length) reach the underlying FS, and returns EIO;
// a failed-sync event fails the At-th Sync with EIO (the data reached the
// file, the durability barrier did not); an enospc event's At is the
// total write budget in bytes across the whole FS, and once it is crossed
// writes fail with ENOSPC. A kind the plan does not schedule stays at
// ordinal zero and never fires. Counters are global across the FS (under
// one mutex), so a plan's ordinals form one deterministic schedule per
// injector lifetime. Faults are one-shot: after firing, the class disarms
// (except ENOSPC, which persists — a full disk stays full until the
// injector is rebuilt).
type Injector struct {
	inner   FS
	filter  func(path string) bool
	onFault func(Fault)

	torn, failSync, enospc seeded.Event[FaultKind]

	mu       sync.Mutex
	writes   int64
	syncs    int64
	written  int64
	fired    map[FaultKind]int64
	enospcOn bool
}

// NewInjector wraps inner with plan. filter (optional) restricts
// injection to matching paths — counters only advance on matching
// files, so ordinals are stable against unrelated I/O. onFault
// (optional) observes every fired fault.
func NewInjector(inner FS, plan seeded.Plan[FaultKind], filter func(path string) bool, onFault func(Fault)) *Injector {
	in := &Injector{inner: inner, filter: filter, onFault: onFault, fired: map[FaultKind]int64{}}
	in.torn, _ = plan.Lookup(FaultTornWrite)
	in.failSync, _ = plan.Lookup(FaultFailedSync)
	in.enospc, _ = plan.Lookup(FaultENOSPC)
	return in
}

// Fired returns how many faults of each class this injector executed.
func (in *Injector) Fired() map[FaultKind]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[FaultKind]int64, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}

func (in *Injector) match(path string) bool {
	return in.filter == nil || in.filter(path)
}

func (in *Injector) fireLocked(f Fault) {
	in.fired[f.Kind]++
	hook := in.onFault
	if hook != nil {
		// Deliver outside the lock; the hook may inspect the injector.
		in.mu.Unlock()
		hook(f)
		in.mu.Lock()
	}
}

// decideWrite consumes one write ordinal for path and returns the fault
// to execute, if any: kept >= 0 means "tear, persist kept bytes".
func (in *Injector) decideWrite(path string, length int) (fault *InjectedError, kept int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.writes++
	n := in.writes
	if in.torn.At == n && length > 0 {
		kept = int(in.torn.Arg % int64(length))
		f := Fault{Kind: FaultTornWrite, Path: path, Ordinal: n, Kept: kept}
		in.fireLocked(f)
		return &InjectedError{Fault: f, Err: syscall.EIO}, kept
	}
	if in.enospc.At > 0 {
		if in.enospcOn {
			f := Fault{Kind: FaultENOSPC, Path: path, Ordinal: n}
			in.fireLocked(f)
			return &InjectedError{Fault: f, Err: syscall.ENOSPC}, 0
		}
		if in.written+int64(length) > in.enospc.At {
			kept = int(in.enospc.At - in.written)
			if kept < 0 {
				kept = 0
			}
			in.enospcOn = true
			in.written = in.enospc.At
			f := Fault{Kind: FaultENOSPC, Path: path, Ordinal: n, Kept: kept}
			in.fireLocked(f)
			return &InjectedError{Fault: f, Err: syscall.ENOSPC}, kept
		}
	}
	in.written += int64(length)
	return nil, 0
}

func (in *Injector) decideSync(path string) *InjectedError {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.syncs++
	if in.failSync.At == in.syncs {
		f := Fault{Kind: FaultFailedSync, Path: path, Ordinal: in.syncs}
		in.fireLocked(f)
		return &InjectedError{Fault: f, Err: syscall.EIO}
	}
	return nil
}

func (in *Injector) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := in.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return in.wrap(f), nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return in.wrap(f), nil
}

func (in *Injector) wrap(f File) File {
	if !in.match(f.Name()) {
		return f
	}
	return &injectedFile{inner: f, in: in}
}

func (in *Injector) Rename(oldpath, newpath string) error   { return in.inner.Rename(oldpath, newpath) }
func (in *Injector) Remove(path string) error               { return in.inner.Remove(path) }
func (in *Injector) Truncate(path string, size int64) error { return in.inner.Truncate(path, size) }
func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	return in.inner.MkdirAll(path, perm)
}
func (in *Injector) ReadDir(path string) ([]fs.DirEntry, error) { return in.inner.ReadDir(path) }
func (in *Injector) SyncDir(path string) error                  { return in.inner.SyncDir(path) }

// injectedFile interposes the write/sync fault decisions on one handle.
type injectedFile struct {
	inner File
	in    *Injector
}

func (f *injectedFile) Name() string               { return f.inner.Name() }
func (f *injectedFile) Read(p []byte) (int, error) { return f.inner.Read(p) }

func (f *injectedFile) Write(p []byte) (int, error) {
	fault, kept := f.in.decideWrite(f.inner.Name(), len(p))
	if fault == nil {
		return f.inner.Write(p)
	}
	n := 0
	if kept > 0 {
		n, _ = f.inner.Write(p[:kept])
	}
	return n, fault
}

func (f *injectedFile) Sync() error {
	if fault := f.in.decideSync(f.inner.Name()); fault != nil {
		return fault
	}
	return f.inner.Sync()
}

func (f *injectedFile) Chmod(mode fs.FileMode) error { return f.inner.Chmod(mode) }
func (f *injectedFile) Close() error                 { return f.inner.Close() }

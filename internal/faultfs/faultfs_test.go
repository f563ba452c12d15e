package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/seeded"
)

// write is a test helper: create path on fsys with content, optionally
// syncing the file.
func write(t *testing.T, fsys FS, path, content string, sync bool) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, fsys *Mem, path string) string {
	t.Helper()
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// The Mem durability model: unsynced data does not survive a crash,
// synced data does, and a file Sync makes the file's own dirent
// durable.
func TestMemCrashImageDropsUnsyncedData(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, m, "/d/synced", "durable", true)
	write(t, m, "/d/unsynced", "volatile", false)

	// Append past the synced prefix without syncing.
	f, err := m.OpenFile("/d/synced", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" tail")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := readFile(t, m, "/d/synced"); got != "durable tail" {
		t.Fatalf("live view = %q, want %q", got, "durable tail")
	}

	img := m.CrashImage()
	if got := readFile(t, img, "/d/synced"); got != "durable" {
		t.Errorf("crash image kept unsynced tail: %q", got)
	}
	if _, err := img.ReadFile("/d/unsynced"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("never-synced file survived the crash: %v", err)
	}
	// The original is untouched.
	if got := readFile(t, m, "/d/synced"); got != "durable tail" {
		t.Errorf("CrashImage mutated the live fs: %q", got)
	}
}

// Rename durability: without SyncDir the crash image shows the
// pre-rename state; with it, the rename survives. This is the model the
// WriteFileAtomic satellite fix is proved against.
func TestMemRenameNeedsSyncDir(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, m, "/d/tmp1", "payload", true)

	if err := m.Rename("/d/tmp1", "/d/final"); err != nil {
		t.Fatal(err)
	}
	img := m.CrashImage()
	if _, err := img.ReadFile("/d/final"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("rename became durable without SyncDir: %v", err)
	}
	if got := readFile(t, img, "/d/tmp1"); got != "payload" {
		t.Errorf("pre-rename name lost from crash image: %q", got)
	}

	if err := m.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	img2 := m.CrashImage()
	if got := readFile(t, img2, "/d/final"); got != "payload" {
		t.Errorf("rename + SyncDir not durable: %q", got)
	}
	if _, err := img2.ReadFile("/d/tmp1"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("old name survived SyncDir: %v", err)
	}
}

// Truncate + append mirrors the journal's torn-tail recovery; the
// crash image tracks the synced state through it.
func TestMemTruncateAndAppend(t *testing.T) {
	m := NewMem()
	write(t, m, "/j", "aaaa\nbbbb\ngarb", true)
	if err := m.Truncate("/j", 10); err != nil {
		t.Fatal(err)
	}
	f, err := m.OpenFile("/j", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("cccc\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	want := "aaaa\nbbbb\ncccc\n"
	if got := readFile(t, m, "/j"); got != want {
		t.Errorf("live = %q, want %q", got, want)
	}
	if got := readFile(t, m.CrashImage(), "/j"); got != want {
		t.Errorf("crash image = %q, want %q", got, want)
	}
}

func TestMemReadDir(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("/s/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, m, "/s/b.json", "x", true)
	write(t, m, "/s/a.json", "y", false)
	entries, err := m.ReadDir("/s")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"a.json", "b.json", "sub"}; !reflect.DeepEqual(names, want) {
		t.Errorf("ReadDir = %v, want %v", names, want)
	}
}

// The injector executes its plan exactly: the scheduled ordinal tears,
// fails, or runs dry, and everything else passes through.
func TestInjectorTornWrite(t *testing.T) {
	m := NewMem()
	inj := NewInjector(m, seeded.Plan[FaultKind]{{Kind: FaultTornWrite, At: 2, Arg: 3}}, nil, nil)
	f, err := inj.OpenFile("/f", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("first|")); err != nil {
		t.Fatalf("write 1 faulted early: %v", err)
	}
	n, err := f.Write([]byte("second"))
	if n != 3 {
		t.Errorf("torn write persisted %d bytes, want 3", n)
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write error = %v, want injected EIO", err)
	}
	if ie.Fault.Kind != FaultTornWrite {
		t.Errorf("fault kind = %v", ie.Fault.Kind)
	}
	if got := readFile(t, m, "/f"); got != "first|sec" {
		t.Errorf("file after torn write = %q, want %q", got, "first|sec")
	}
	// One-shot: the next write is clean.
	if _, err := f.Write([]byte("!")); err != nil {
		t.Errorf("write after torn write faulted again: %v", err)
	}
	if got := inj.Fired()[FaultTornWrite]; got != 1 {
		t.Errorf("fired[torn-write] = %d, want 1", got)
	}
}

func TestInjectorFailedSyncKeepsDataVolatile(t *testing.T) {
	m := NewMem()
	var seen []Fault
	inj := NewInjector(m, seeded.Plan[FaultKind]{{Kind: FaultFailedSync, At: 2}}, nil, func(f Fault) { seen = append(seen, f) })
	f, err := inj.OpenFile("/f", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("one"))
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1 faulted early: %v", err)
	}
	f.Write([]byte("two"))
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync 2 = %v, want injected EIO", err)
	}
	// The failed barrier means "two" is not durable.
	if got := readFile(t, m.CrashImage(), "/f"); got != "one" {
		t.Errorf("crash image after failed sync = %q, want %q", got, "one")
	}
	if len(seen) != 1 || seen[0].Kind != FaultFailedSync {
		t.Errorf("OnFault saw %v", seen)
	}
}

func TestInjectorENOSPCPersists(t *testing.T) {
	m := NewMem()
	inj := NewInjector(m, seeded.Plan[FaultKind]{{Kind: FaultENOSPC, At: 10}}, nil, nil)
	f, err := inj.OpenFile("/f", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("12345678")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("budget-crossing write = (%d, %v), want (2, ENOSPC)", n, err)
	}
	// The disk stays full.
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-ENOSPC write = %v, want ENOSPC", err)
	}
	if got := readFile(t, m, "/f"); got != "12345678ab" {
		t.Errorf("file = %q, want %q", got, "12345678ab")
	}
	if got := inj.Fired()[FaultENOSPC]; got != 2 {
		t.Errorf("fired[enospc] = %d, want 2", got)
	}
}

// The path filter keeps unrelated I/O out of the ordinal counters.
func TestInjectorPathFilter(t *testing.T) {
	m := NewMem()
	inj := NewInjector(m, seeded.Plan[FaultKind]{{Kind: FaultTornWrite, At: 1}},
		func(p string) bool { return p == "/target" }, nil)
	write(t, inj, "/noise", "unrelated", true) // not counted, not faulted
	f, err := inj.OpenFile("/target", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hit")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first matching write = %v, want injected EIO", err)
	}
	if got := readFile(t, m, "/noise"); got != "unrelated" {
		t.Errorf("filtered path was faulted: %q", got)
	}
}

// The OS passthrough really passes through, including SyncDir on a real
// directory.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fsys := OS()
	if err := fsys.MkdirAll(dir+"/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, fsys, dir+"/sub/f", "hello", true)
	if err := fsys.Rename(dir+"/sub/f", dir+"/sub/g"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(dir + "/sub/g"); err != nil || string(got) != "hello" {
		t.Errorf("content = %q, %v", got, err)
	}
	entries, err := fsys.ReadDir(dir + "/sub")
	if err != nil || len(entries) != 1 || entries[0].Name() != "g" {
		t.Errorf("ReadDir = %v, %v", entries, err)
	}
	if err := fsys.Truncate(dir+"/sub/g", 2); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(dir + "/sub/g"); err != nil || string(got) != "he" {
		t.Errorf("truncated content = %q, %v", got, err)
	}
	if OrOS(nil) == nil || OrOS(fsys) != fsys {
		t.Error("OrOS defaulting broken")
	}
}

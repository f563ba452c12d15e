package metrics

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/seeded"
)

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "first\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "second\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second\n" {
		t.Errorf("content = %q, want %q", data, "second\n")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", fi.Mode().Perm())
	}
}

// The satellite guarantee: a writer that dies mid-stream — here, an error
// after partial output, the observable equivalent of a kill between write
// and close — leaves the previous artifact byte-intact and no temp-file
// litter behind.
func TestWriteFileAtomicFailureKeepsOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	const old = "precious previous results\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("writer died mid-stream")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		// Enough output to defeat any buffering before the failure.
		junk := strings.Repeat("partial garbage ", 64*1024)
		if _, err := io.WriteString(w, junk); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != old {
		t.Errorf("failed write corrupted the artifact: %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Errorf("leftover temp file %q after failed write", e.Name())
		}
	}
}

// An unwritable destination directory fails up front without touching
// anything.
func TestWriteFileAtomicBadDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	err := WriteFileAtomic(path, func(w io.Writer) error { return nil })
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// The parent-dir-fsync regression: under the faultfs durability model a
// rename is volatile until the directory is fsynced, so the crash image
// must show the NEW artifact (proving WriteFileAtomicFS issues the
// SyncDir) and never a half state.
func TestWriteFileAtomicRenameSurvivesCrash(t *testing.T) {
	m := faultfs.NewMem()
	if err := m.MkdirAll("/out", 0o755); err != nil {
		t.Fatal(err)
	}
	path := "/out/result.json"
	if err := WriteFileAtomicFS(m, path, func(w io.Writer) error {
		_, err := io.WriteString(w, "results v1\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	img := m.CrashImage()
	data, err := img.ReadFile(path)
	if err != nil {
		t.Fatalf("crash right after WriteFileAtomic lost the rename: %v", err)
	}
	if string(data) != "results v1\n" {
		t.Errorf("crash image content = %q", data)
	}
	entries, err := img.ReadDir("/out")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("crash image has stray entries: %v", entries)
	}
}

// A failed fsync on the temp file aborts the write: the destination is
// untouched (live and crash views both), and the caller sees the
// injected error.
func TestWriteFileAtomicFailedSyncAborts(t *testing.T) {
	m := faultfs.NewMem()
	if err := m.MkdirAll("/out", 0o755); err != nil {
		t.Fatal(err)
	}
	path := "/out/result.json"
	if err := WriteFileAtomicFS(m, path, func(w io.Writer) error {
		_, err := io.WriteString(w, "good run\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	inj := faultfs.NewInjector(m, seeded.Plan[faultfs.FaultKind]{{Kind: faultfs.FaultFailedSync, At: 1}}, nil, nil)
	err := WriteFileAtomicFS(inj, path, func(w io.Writer) error {
		_, err := io.WriteString(w, "doomed rewrite\n")
		return err
	})
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want injected EIO", err)
	}
	for name, fsys := range map[string]faultfs.FS{"live": m, "crash image": m.CrashImage()} {
		data, err := fsys.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(data) != "good run\n" {
			t.Errorf("%s content after failed sync = %q", name, data)
		}
	}
	entries, err := m.ReadDir("/out")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp litter after failed sync: %v", entries)
	}
}

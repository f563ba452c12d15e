// Package faultfs is the seeded disk-fault layer under the repository's
// durability claims. Every component that promises crash safety — the
// fsync'd cell journal (internal/experiments), the atomic artifact
// writer (metrics.WriteFileAtomic), the checkpoint codec's SaveFile
// (internal/snapshot) — performs its file I/O through the small FS
// interface here, so a torture harness can interpose deterministic
// failures exactly where production code claims to survive them:
//
//   - torn writes (a Write persists only its first k bytes and errors),
//   - failed Sync (fsync returns EIO; data written since the last
//     successful sync may not be durable),
//   - ENOSPC after a byte budget (the write crossing the budget is
//     short and errors, later writes fail outright),
//   - crash-point directory images (Mem models which bytes and which
//     directory entries are durable; CrashImage materializes the state
//     a machine would reboot into).
//
// Production code uses the OS() passthrough, which adds nothing on top
// of the os package — zero behavior change — except SyncDir, the
// parent-directory fsync that makes renames themselves durable. The
// package is a leaf: it imports only the standard library and seeded
// (the schedule an Injector executes), so the other leaf packages
// (snapshot, metrics) can depend on it without cycles.
package faultfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the writable/readable handle the durability layers use. It is
// the subset of *os.File they actually call.
type File interface {
	io.Reader
	io.Writer
	// Name returns the path the file was opened or created at.
	Name() string
	// Sync flushes the file's data (and, in the Mem model, makes its
	// directory entry durable — the common journaled-filesystem
	// behavior).
	Sync() error
	// Chmod sets the file mode.
	Chmod(mode fs.FileMode) error
	// Close closes the handle. Close does NOT imply durability.
	Close() error
}

// FS is the filesystem surface the durability layers run on: exactly
// the operations the journal append path, snapshot.SaveFile and
// metrics.WriteFileAtomic perform, no more.
type FS interface {
	// OpenFile opens path with os.OpenFile semantics for the flag
	// combinations the callers use (O_RDONLY; O_CREATE|O_TRUNC|O_WRONLY;
	// O_WRONLY|O_APPEND).
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new unique file in dir with os.CreateTemp
	// naming semantics.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath. Durability of the
	// rename itself requires SyncDir on the parent directory.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// Truncate cuts path to size bytes.
	Truncate(path string, size int64) error
	// MkdirAll creates path and parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists a directory.
	ReadDir(path string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory, making entry mutations (creates,
	// renames, removes) in it durable.
	SyncDir(path string) error
}

// osFS is the production passthrough.
type osFS struct{}

// OS returns the passthrough FS over the real filesystem. Every
// FS-accepting entry point treats a nil FS as OS(), so production call
// sites need no mode check.
func OS() FS { return osFS{} }

// OrOS returns fsys, or the OS passthrough when fsys is nil.
func OrOS(fsys FS) FS {
	if fsys == nil {
		return osFS{}
	}
	return fsys
}

func (osFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(path string) ([]byte, error)   { return os.ReadFile(path) }
func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error               { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }

// SyncDir fsyncs the directory so entry mutations in it survive a
// crash. POSIX requires this for renames and creates to be durable;
// file-level fsync alone does not cover the dirent.
func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Package snapshot is the versioned, deterministic binary format for
// machine-state checkpoints, and the Codec the simulator layers read and
// write it through. A layer (mem, core, cache, coherence, and the mp and
// workstation drivers above them) describes its serialized state once,
// as a walk — func (x *T) State(c Codec) — that visits its fields in
// payload order; the Codec appends each visited field when saving and
// overwrites it when restoring, so there is no second, mirrored
// description to keep in step (codec.go). The container format carries a
// magic number, a codec version, a kind string (which machine shape the
// snapshot holds), a caller fingerprint (the prefix-configuration hash),
// and a trailing checksum over the payload, so a corrupt, truncated, or
// mismatched file is rejected with a typed error instead of
// deserializing garbage.
//
// The encoding is fixed-width little-endian with explicit section tags
// between layers. Two snapshots of identical machine state are
// byte-identical — StateHash over the serialized form is therefore a
// machine-state hash — and restore is defined only at 64-cycle block
// boundaries (the simulators' shared cancellation/watchdog/metrics
// cadence), which is what makes a forked run position-identical to an
// uninterrupted one by construction.
//
// The package is a near-leaf: it imports only the standard library plus
// internal/faultfs (itself a stdlib-only leaf, threading fault-injected
// filesystems under SaveFile), so every simulation layer can depend on
// it without cycles.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

// Version is the codec version. Any change to the bytes a layer's walk
// produces must bump it; Decode rejects other versions with ErrVersion
// so stale checkpoint files fall back to from-scratch simulation rather
// than restoring skewed state.
const Version = 1

// magic identifies a snapshot container ("RPSN", little-endian).
const magic uint32 = 0x4e535052

// Typed failures. Callers distinguish "this file is not a usable
// checkpoint" (fall back to scratch simulation) from real I/O errors.
var (
	// ErrCorrupt marks a container that is structurally broken:
	// bad magic, truncated data, checksum mismatch, or a payload that
	// does not decode against the layer's schema.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrVersion marks a container written by a different codec version.
	ErrVersion = errors.New("snapshot: codec version mismatch")
	// ErrMismatch marks a well-formed container holding a different
	// machine kind or prefix fingerprint than the caller expects.
	ErrMismatch = errors.New("snapshot: wrong snapshot")
)

// FNV-1a is the repo-wide hash convention, and this package owns it:
// StateHash folds bytes and Fold folds 64-bit words, each from FNVOffset.
// mem.Memory.Hash, core.Thread.HashArchState, guard.MachineHash and the
// fuzzer's state chains are Folds.
const (
	FNVOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Fold folds v into the running FNV-1a digest h, one byte at a time from
// the least significant.
func Fold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xFF) * fnvPrime
		v >>= 8
	}
	return h
}

// StateHash hashes a serialized snapshot (FNV-1a over every byte).
// Because the encoding is deterministic, equal hashes mean equal
// machine state for snapshots of the same kind.
func StateHash(data []byte) uint64 {
	h := uint64(FNVOffset)
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// Writer is the buffer a save walk appends to. Fields are written
// through a Codec (Saving), never directly. A Writer from NewWriter holds
// a bare payload and grows as it goes; one from begin holds a container
// under construction: header, then the payload from offset start, in a
// buffer sized up front so the walk never regrows it and seal never
// copies it.
type Writer struct {
	buf   []byte
	start int // where the payload begins in buf; 0 for a bare payload
	// sizing makes the Writer count the bytes a walk would append (in n)
	// without storing them: how Seal learns the payload size before it
	// allocates.
	sizing bool
	n      int
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the raw serialized payload written so far.
func (w *Writer) Bytes() []byte { return w.buf[w.start:] }

// grow appends n zero bytes and returns them for the caller to fill; a
// sizing Writer counts them and returns nil. Every append goes through
// here, so this is the one place the two kinds of Writer differ.
func (w *Writer) grow(n int) []byte {
	if w.sizing {
		w.n += n
		return nil
	}
	w.buf = append(w.buf, make([]byte, n)...)
	return w.buf[len(w.buf)-n:]
}

func (w *Writer) u8(v uint8) {
	if b := w.grow(1); b != nil {
		b[0] = v
	}
}

func (w *Writer) u32(v uint32) {
	if b := w.grow(4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
	}
}

func (w *Writer) u64(v uint64) {
	if b := w.grow(8); b != nil {
		binary.LittleEndian.PutUint64(b, v)
	}
}

// str appends a length-prefixed UTF-8 string.
func (w *Writer) str(s string) {
	w.u32(uint32(len(s)))
	copy(w.grow(len(s)), s)
}

// Reader is the payload a restore walk consumes, through a Codec
// (Restoring). Errors are sticky: the first short read, tag mismatch or
// failed shape check records ErrCorrupt, every later visit leaves its
// field untouched, and the caller checks once at the end with Finish.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

func (r *Reader) remaining() int { return len(r.buf) - r.off }

// fail records the sticky error (first failure wins).
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), r.off)
	}
}

// take consumes the next n bytes, or fails and returns nil.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.off {
		r.fail("truncated (%d bytes wanted, %d left)", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// str reads a length-prefixed string.
func (r *Reader) str() string {
	n := r.u32()
	if int64(n) > int64(r.remaining()) {
		r.fail("string length %d exceeds remaining payload", n)
		return ""
	}
	return string(r.take(int(n)))
}

// Container layout (all little-endian):
//
//	u32 magic | u32 version | str kind | str fingerprint |
//	u32 payloadLen | payload | u64 fnv1a(payload)
//
// A container is built in place, in one buffer: begin writes the header
// and a length placeholder, the payload is appended behind it, and seal
// back-patches the length and appends the checksum.

// begin starts a container for a payload of size bytes. The size is a
// capacity, not a promise: a payload that turns out longer grows the
// buffer like any append, and seal records the length actually written.
func begin(kind, fingerprint string, size int) *Writer {
	head := 4 + 4 + 4 + len(kind) + 4 + len(fingerprint) + 4
	w := &Writer{buf: make([]byte, 0, head+size+8)}
	w.u32(magic)
	w.u32(Version)
	w.str(kind)
	w.str(fingerprint)
	w.u32(0) // payload length, patched by seal
	w.start = len(w.buf)
	return w
}

// seal closes a container started by begin and returns it.
func (w *Writer) seal() []byte {
	payload := w.buf[w.start:]
	binary.LittleEndian.PutUint32(w.buf[w.start-4:], uint32(len(payload)))
	w.u64(StateHash(payload))
	return w.buf
}

// Seal runs a save walk and returns its payload in the versioned
// container. The walk runs twice: once against a sizing Writer, so the
// container is allocated at its final size, and once to fill it.
func Seal(kind, fingerprint string, walk func(Codec)) []byte {
	sizing := &Writer{sizing: true}
	walk(Saving(sizing))
	w := begin(kind, fingerprint, sizing.n)
	walk(Saving(w))
	return w.seal()
}

// Encode wraps an already serialized payload in the versioned container.
func Encode(kind, fingerprint string, payload []byte) []byte {
	w := begin(kind, fingerprint, len(payload))
	copy(w.grow(len(payload)), payload)
	return w.seal()
}

// Image is a container that passed every check Open makes, viewed as
// its payload. It is immutable: any number of restores may read one
// Image at once, each through its own Reader, and none of them repeats
// the verification.
type Image struct {
	payload []byte
}

// Open validates a container — magic, version, lengths, no trailing
// bytes, payload checksum — against the kind and fingerprint the caller
// is restoring into: kind names the machine shape, fingerprint the
// prefix configuration that produced the checkpoint. The Image aliases
// data, which the caller must not modify afterwards.
func Open(data []byte, kind, fingerprint string) (*Image, error) {
	r := NewReader(data)
	if got := r.u32(); r.err != nil || got != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if got := r.u32(); r.err != nil || got != Version {
		return nil, fmt.Errorf("%w: file has codec version %d, this binary speaks %d", ErrVersion, got, Version)
	}
	gotKind := r.str()
	gotFP := r.str()
	n := r.u32()
	payload := r.take(int(n))
	sum := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.remaining())
	}
	if StateHash(payload) != sum {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	if gotKind != kind {
		return nil, fmt.Errorf("%w: snapshot kind %q, want %q", ErrMismatch, gotKind, kind)
	}
	if gotFP != fingerprint {
		return nil, fmt.Errorf("%w: prefix fingerprint %q, want %q", ErrMismatch, gotFP, fingerprint)
	}
	return &Image{payload: payload}, nil
}

// Reader returns a fresh Reader over the verified payload.
func (im *Image) Reader() *Reader { return NewReader(im.payload) }

// Payload returns the verified payload bytes, which the caller must not
// modify.
func (im *Image) Payload() []byte { return im.payload }

// Decode is Open followed by Reader, for a caller that restores a
// container once.
func Decode(data []byte, kind, fingerprint string) (*Reader, error) {
	im, err := Open(data, kind, fingerprint)
	if err != nil {
		return nil, err
	}
	return im.Reader(), nil
}

// Finish verifies a payload Reader consumed cleanly: no decode error
// and no unread bytes. Every restore walk ends here.
func Finish(r *Reader) error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d unread payload bytes", ErrCorrupt, r.remaining())
	}
	return nil
}

// SaveFile writes a container to path atomically (temp file in the
// same directory + rename + parent-directory fsync), so a crash
// mid-write never leaves a half-written checkpoint where a later run
// would trip over it.
func SaveFile(path string, data []byte) error {
	return SaveFileFS(nil, path, data)
}

// SaveFileFS is SaveFile over an explicit filesystem; a nil fsys means
// the real one. Fault-injection harnesses pass a faultfs injector to
// exercise the crash-safety claim.
func SaveFileFS(fsys faultfs.FS, path string, data []byte) error {
	fsys = faultfs.OrOS(fsys)
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// LoadFile reads a container written by SaveFile.
func LoadFile(path string) ([]byte, error) { return os.ReadFile(path) }

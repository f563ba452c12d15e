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
// and a trailing CRC-32C over the payload, so a corrupt, truncated, or
// mismatched container is rejected with a typed error instead of
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
// The package is a leaf: it imports only the standard library, so every
// simulation layer can depend on it without cycles.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Version is the container version. Any change to the container's
// framing, or to the bytes a layer's walk produces, must bump it; Open
// rejects other versions with ErrVersion rather than restoring skewed
// state.
// Version 2 changed only the trailing checksum (FNV-1a → CRC-32C).
const Version = 2

// magic identifies a snapshot container ("RPSN", little-endian).
const magic uint32 = 0x4e535052

// Typed failures: "these bytes are not a usable checkpoint", as opposed
// to a failure of the simulation itself.
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
// FoldBytes folds bytes and Fold folds 64-bit words, each from FNVOffset.
// mem.Memory.Hash, core.Thread.HashArchState, guard.MachineHash,
// core.RetireHash and prog.Program.Fingerprint are Folds; StateHash and
// the journal's experiments.DataHash are FoldBytes.
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

// FoldBytes folds every byte of data into the running FNV-1a digest h.
func FoldBytes(h uint64, data []byte) uint64 {
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// StateHash hashes a serialized snapshot (FNV-1a over every byte).
// Because the encoding is deterministic, equal hashes mean equal
// machine state for snapshots of the same kind.
func StateHash(data []byte) uint64 {
	return FoldBytes(FNVOffset, data)
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
//	u32 payloadLen | payload | u32 crc32c(payload)
//
// A container is built in place, in one buffer: begin writes the header
// and a length placeholder, the payload is appended behind it, and seal
// back-patches the length and appends the checksum. The checksum is
// CRC-32C (Castagnoli), which the hash/crc32 package computes with the
// CPU's CRC instructions on amd64 and arm64: it guards against flipped
// or truncated bytes (a codec bug, a fuzzed payload), not an adversary,
// and runs at memory speed where the byte-serial StateHash would cost a
// millisecond per megabyte.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the container trailer over payload.
func checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// begin starts a container for a payload of size bytes. The size is a
// capacity, not a promise: a payload that turns out longer grows the
// buffer like any append, and seal records the length actually written.
func begin(kind, fingerprint string, size int) *Writer {
	head := 4 + 4 + 4 + len(kind) + 4 + len(fingerprint) + 4
	w := &Writer{buf: make([]byte, 0, head+size+4)}
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
	w.u32(checksum(payload))
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
// its payload. The payload is immutable: any number of restores may read
// one Image at once, each through its own Reader, and none of them
// repeats the verification.
//
// An Image also keeps the restores' spare storage (PutSpare, Spare): a
// fork of the image that has finished hands over what its restore walk
// would overwrite in full anyway, and the next fork takes it instead of
// allocating. The spares live as long as the Image does.
type Image struct {
	payload []byte

	mu     sync.Mutex
	spares []any
}

// PutSpare hands v, storage a finished restore no longer uses, to the
// next restore from this image. Safe for concurrent use.
func (im *Image) PutSpare(v any) {
	im.mu.Lock()
	im.spares = append(im.spares, v)
	im.mu.Unlock()
}

// Spare takes storage that an earlier restore handed over with PutSpare,
// or returns nil. Each value is taken at most once, so concurrent
// restores never share one. Safe for concurrent use.
func (im *Image) Spare() any {
	im.mu.Lock()
	defer im.mu.Unlock()
	n := len(im.spares)
	if n == 0 {
		return nil
	}
	v := im.spares[n-1]
	im.spares[n-1] = nil
	im.spares = im.spares[:n-1]
	return v
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
		return nil, fmt.Errorf("%w: container has codec version %d, this binary speaks %d", ErrVersion, got, Version)
	}
	gotKind := r.str()
	gotFP := r.str()
	n := r.u32()
	payload := r.take(int(n))
	sum := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.remaining())
	}
	if checksum(payload) != sum {
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

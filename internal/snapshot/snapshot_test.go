package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// fields is one of every visit a walk can make; walk visits them all in
// a fixed order, so saving one value and restoring into a zero one must
// reproduce it.
type fields struct {
	u8   uint8
	i8   int8
	yes  bool
	no   bool
	u32  uint32
	i32  int32
	u64  uint64
	i64  int64
	n    int
	u32s [3]uint32
	u64s [2]uint64
	i64s [2]int64
	bs   [3]bool
	m    map[uint32]int64
	list []uint32
}

func (f *fields) walk(c Codec) {
	c.Section(0x11111111)
	c.U8(&f.u8)
	c.I8(&f.i8)
	c.Bool(&f.yes)
	c.Bool(&f.no)
	c.U32(&f.u32)
	c.I32(&f.i32)
	c.U64(&f.u64)
	c.I64(&f.i64)
	c.Int(&f.n)
	c.U32s(f.u32s[:])
	c.U64s(f.u64s[:])
	c.I64s(f.i64s[:])
	c.Bools(f.bs[:])
	Map(c, f.m, c.I64)
	Slice(c, &f.list, c.U32)
	c.ShapeU8("mode", 3)
	c.ShapeU32("mask", 0xff)
	c.ShapeI64("contexts", 4)
	c.ShapeStr("name", "hello")
	if c.Present("part", true) {
		c.ShapeStr("empty", "")
	}
	c.Present("other part", false)
}

func TestWriterReaderRoundTrip(t *testing.T) {
	want := fields{
		u8: 0xab, i8: -3, yes: true, u32: 0xdeadbeef, i32: -9, u64: 1<<63 | 12345, i64: -42, n: -7,
		u32s: [3]uint32{1, 2, 1 << 31}, u64s: [2]uint64{1 << 63, 5}, i64s: [2]int64{-1, 1 << 40},
		bs: [3]bool{true, false, true},
		m:  map[uint32]int64{9: -9, 2: 2, 1 << 31: 7}, list: []uint32{5, 4, 3},
	}
	w := NewWriter()
	want.walk(Saving(w))

	// Restoring replaces what the target held, maps and lists included.
	got := fields{m: map[uint32]int64{77: 77}, list: []uint32{1}}
	r := NewReader(w.Bytes())
	got.walk(Restoring(r))
	if err := Finish(r); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}

	// Identical state gives identical bytes whatever the map's history.
	w2 := NewWriter()
	got.walk(Saving(w2))
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Error("re-saved bytes differ")
	}
}

func TestReaderStickyErrors(t *testing.T) {
	r := NewReader([]byte{1, 2})
	c := Restoring(r)
	v := uint64(7)
	c.U64(&v)
	if v != 7 {
		t.Errorf("truncated U64 overwrote its field with %d", v)
	}
	if !errors.Is(c.Err(), ErrCorrupt) {
		t.Errorf("Err = %v, want ErrCorrupt", c.Err())
	}
	// Every later visit leaves its field alone without panicking.
	u, b, arr := uint32(5), true, [2]uint32{1, 2}
	c.U32(&u)
	c.Bool(&b)
	c.U32s(arr[:])
	c.ShapeStr("name", "x")
	if u != 5 || !b || arr != [2]uint32{1, 2} {
		t.Error("visits after the sticky error must leave fields untouched")
	}
	if err := Finish(r); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Finish = %v, want ErrCorrupt", err)
	}

	w := NewWriter()
	Saving(w).Section(1)
	r = NewReader(w.Bytes())
	Restoring(r).Section(2)
	if !errors.Is(Finish(r), ErrCorrupt) {
		t.Errorf("section tag mismatch: %v, want ErrCorrupt", Finish(r))
	}

	// A declared string length, map size or list length larger than the
	// payload must not allocate, loop past the payload or crash.
	w = NewWriter()
	huge := uint32(1 << 30)
	Saving(w).U32(&huge)
	for name, visit := range map[string]func(Codec){
		"string": func(c Codec) { c.ShapeStr("name", "x") },
		"map":    func(c Codec) { Map(c, map[uint32]int64{}, c.I64) },
		"list":   func(c Codec) { Slice(c, new([]uint32), c.U32) },
	} {
		r = NewReader(w.Bytes())
		visit(Restoring(r))
		if !errors.Is(Finish(r), ErrCorrupt) {
			t.Errorf("oversized %s length: %v, want ErrCorrupt", name, Finish(r))
		}
	}

	r = NewReader(nil)
	c = Restoring(r)
	c.Expect("contexts", 4, 4)
	if c.Err() != nil {
		t.Errorf("Expect on equal values: %v", c.Err())
	}
	c.Expect("contexts", 4, 8)
	if !errors.Is(c.Err(), ErrCorrupt) {
		t.Errorf("Expect on unequal values: %v", c.Err())
	}
	Saving(NewWriter()).Expect("contexts", 4, 8) // a no-op while saving

	// Shape and presence mismatches fail the restore and never overwrite.
	for name, pair := range map[string][2]func(Codec){
		"shape":    {func(c Codec) { c.ShapeI64("contexts", 4) }, func(c Codec) { c.ShapeI64("contexts", 8) }},
		"name":     {func(c Codec) { c.ShapeStr("name", "a") }, func(c Codec) { c.ShapeStr("name", "b") }},
		"presence": {func(c Codec) { c.Present("part", true) }, func(c Codec) { c.Present("part", false) }},
	} {
		w = NewWriter()
		pair[0](Saving(w))
		r = NewReader(w.Bytes())
		pair[1](Restoring(r))
		if !errors.Is(Finish(r), ErrCorrupt) {
			t.Errorf("%s mismatch: %v, want ErrCorrupt", name, Finish(r))
		}
	}
}

// TestCountingSourceReplay: restoring a draw count into a fresh
// same-seeded source lands the stream at the saved position; a source
// that already drew, or an implausible count, is rejected.
func TestCountingSourceReplay(t *testing.T) {
	src := NewCountingSource(5)
	rng := rand.New(src)
	for i := 0; i < 100; i++ {
		rng.Intn(1000)
	}
	w := NewWriter()
	src.State(Saving(w))
	want := rng.Int63()

	fresh := NewCountingSource(5)
	r := NewReader(w.Bytes())
	fresh.State(Restoring(r))
	if err := Finish(r); err != nil {
		t.Fatal(err)
	}
	if got := rand.New(fresh).Int63(); got != want {
		t.Errorf("replayed stream draws %d, want %d", got, want)
	}

	r = NewReader(w.Bytes())
	fresh.State(Restoring(r))
	if !errors.Is(Finish(r), ErrCorrupt) {
		t.Errorf("restore into a source that already drew: %v, want ErrCorrupt", Finish(r))
	}

	for _, draws := range []int64{-1, maxReplayDraws + 1} {
		w = NewWriter()
		Saving(w).I64(&draws)
		r = NewReader(w.Bytes())
		NewCountingSource(5).State(Restoring(r))
		if !errors.Is(Finish(r), ErrCorrupt) {
			t.Errorf("draw count %d: %v, want ErrCorrupt", draws, Finish(r))
		}
	}
}

func TestContainerRoundTrip(t *testing.T) {
	w := NewWriter()
	w.u64(777)
	w.str("payload")
	data := Encode("workstation", "fp123", w.Bytes())

	r, err := Decode(data, "workstation", "fp123")
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got := r.u64(); got != 777 {
		t.Errorf("payload u64 = %d", got)
	}
	if got := r.str(); got != "payload" {
		t.Errorf("payload str = %q", got)
	}
	if err := Finish(r); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestSealEqualsEncode: a container sealed in place around a walk is
// byte for byte the container Encode builds around the same walk's
// payload, and the sizing walk counted it exactly, so the buffer was
// allocated once at its final size.
func TestSealEqualsEncode(t *testing.T) {
	f := fields{
		u8: 1, u32s: [3]uint32{7, 8, 9}, bs: [3]bool{true, false, true},
		m: map[uint32]int64{9: -9, 2: 2, 1 << 31: 7}, list: []uint32{5, 4, 3},
	}
	w := NewWriter()
	f.walk(Saving(w))

	sealed := Seal("kind", "fp", f.walk)
	if !bytes.Equal(sealed, Encode("kind", "fp", w.Bytes())) {
		t.Error("Seal and Encode disagree on the container bytes")
	}
	if len(sealed) != cap(sealed) {
		t.Errorf("sealed container is %d bytes in a %d-byte buffer: the sizing walk miscounted", len(sealed), cap(sealed))
	}
	if empty := Seal("kind", "fp", func(Codec) {}); !bytes.Equal(empty, Encode("kind", "fp", nil)) {
		t.Error("Seal and Encode disagree on the empty payload")
	}
}

// TestDecodeRejections: every way a container can be unusable, and for
// each the typed error. Open is the one verification; Decode is Open
// plus a Reader, so the two must fail alike, message included.
func TestDecodeRejections(t *testing.T) {
	w := NewWriter()
	w.u64(1)
	good := Encode("kind", "fp", w.Bytes())
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }

	cases := []struct {
		name     string
		data     []byte
		kind, fp string
		want     error
	}{
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }), "kind", "fp", ErrCorrupt},
		{"garbage", []byte("not a snapshot at all"), "kind", "fp", ErrCorrupt},
		// A different version is ErrVersion, so callers can report
		// staleness distinctly from corruption.
		{"version", mutate(func(b []byte) []byte { b[4] = Version + 1; return b }), "kind", "fp", ErrVersion},
		{"trailing bytes", mutate(func(b []byte) []byte { return append(b, 0) }), "kind", "fp", ErrCorrupt},
		{"flipped payload byte", mutate(func(b []byte) []byte { b[len(b)-5] ^= 0xff; return b }), "kind", "fp", ErrCorrupt},
		{"flipped checksum byte", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }), "kind", "fp", ErrCorrupt},
		{"wrong kind", good, "other", "fp", ErrMismatch},
		{"wrong fingerprint", good, "kind", "other", ErrMismatch},
	}
	// Truncation anywhere is a typed rejection, never a panic: ErrCorrupt,
	// or ErrVersion for a cut inside the version word.
	for n := 0; n < len(good); n++ {
		want := ErrCorrupt
		if n >= 4 && n < 8 {
			want = ErrVersion
		}
		cases = append(cases, struct {
			name     string
			data     []byte
			kind, fp string
			want     error
		}{"truncation", good[:n], "kind", "fp", want})
	}
	for _, tc := range cases {
		img, openErr := Open(tc.data, tc.kind, tc.fp)
		if img != nil || !errors.Is(openErr, tc.want) {
			t.Errorf("%s (%d bytes): Open = %v, %v; want %v", tc.name, len(tc.data), img, openErr, tc.want)
			continue
		}
		r, decodeErr := Decode(tc.data, tc.kind, tc.fp)
		if r != nil || decodeErr == nil || decodeErr.Error() != openErr.Error() {
			t.Errorf("%s: Decode = %v, %v; Open said %v", tc.name, r, decodeErr, openErr)
		}
	}

	img, err := Open(good, "kind", "fp")
	if err != nil {
		t.Fatalf("Open of a good container: %v", err)
	}
	// Each Reader is a fresh cursor over the same verified payload.
	for i := 0; i < 2; i++ {
		r := img.Reader()
		if got := r.u64(); got != 1 || Finish(r) != nil {
			t.Errorf("reader %d: payload u64 = %d, Finish = %v", i, got, Finish(r))
		}
	}
}

// TestContainerTrailerIsCRC32C pins the trailer: the last four bytes of
// a container are the CRC-32C of its payload, little-endian. The check
// value of "123456789" is the one every CRC-32C implementation publishes.
func TestContainerTrailerIsCRC32C(t *testing.T) {
	if got := checksum([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("checksum(123456789) = %#08x, want the CRC-32C check value 0xe3069283", got)
	}
	payload := []byte("123456789")
	data := Encode("kind", "fp", payload)
	if got := binary.LittleEndian.Uint32(data[len(data)-4:]); got != 0xe3069283 {
		t.Errorf("container trailer = %#08x, want 0xe3069283", got)
	}
	if !bytes.Equal(data[len(data)-4-len(payload):len(data)-4], payload) {
		t.Error("payload does not sit directly before the trailer")
	}
}

func TestStateHashDeterministic(t *testing.T) {
	a := StateHash([]byte{1, 2, 3})
	b := StateHash([]byte{1, 2, 3})
	c := StateHash([]byte{1, 2, 4})
	if a != b {
		t.Error("StateHash not deterministic")
	}
	if a == c {
		t.Error("StateHash collision on adjacent payloads")
	}
	if StateHash(nil) != FNVOffset {
		t.Error("StateHash(nil) must be the FNV offset basis")
	}
}

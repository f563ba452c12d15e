package snapshot

import (
	"encoding/binary"
	"slices"
)

// Codec is one direction of a state walk. A layer describes its
// serialized state once, as a function state(c Codec) that visits each
// field in payload order; the Codec appends the visited field to a
// Writer (Saving) or overwrites it from a Reader (Restoring). One walk
// serving both directions is what keeps the encoder and decoder from
// drifting apart: a field is visited, in one place, at one width, or it
// is not part of the checkpoint.
//
// When restoring, errors are sticky (see Reader) and a visit that fails
// leaves its field as it was, so a walk never needs to check mid-way
// before storing what it decoded. Work that only a restore does —
// dropping derived state, re-inserting decoded entries into an ordered
// structure — goes behind !c.Saving() in the layer's walk.
type Codec struct {
	w *Writer
	r *Reader
}

// Saving returns the Codec that appends visited fields to w.
func Saving(w *Writer) Codec { return Codec{w: w} }

// Restoring returns the Codec that overwrites visited fields from r.
func Restoring(r *Reader) Codec { return Codec{r: r} }

// Saving reports the direction of the walk.
func (c Codec) Saving() bool { return c.w != nil }

// Err returns the restore walk's sticky error; nil while saving.
func (c Codec) Err() error {
	if c.r == nil {
		return nil
	}
	return c.r.err
}

// U8 visits one byte.
func (c Codec) U8(p *uint8) {
	if c.w != nil {
		c.w.u8(*p)
	} else if b := c.r.take(1); b != nil {
		*p = b[0]
	}
}

// I8 visits an int8 as one byte.
func (c Codec) I8(p *int8) {
	v := uint8(*p)
	c.U8(&v)
	*p = int8(v)
}

// Bool visits a boolean as one byte.
func (c Codec) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	*p = v != 0
}

// U32 visits a little-endian uint32.
func (c Codec) U32(p *uint32) {
	if c.w != nil {
		c.w.u32(*p)
	} else if b := c.r.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// I32 visits an int32 (two's complement, little-endian).
func (c Codec) I32(p *int32) {
	v := uint32(*p)
	c.U32(&v)
	*p = int32(v)
}

// U64 visits a little-endian uint64.
func (c Codec) U64(p *uint64) {
	if c.w != nil {
		c.w.u64(*p)
	} else if b := c.r.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// I64 visits an int64 (two's complement, little-endian).
func (c Codec) I64(p *int64) {
	v := uint64(*p)
	c.U64(&v)
	*p = int64(v)
}

// Int visits an int as an int64.
func (c Codec) Int(p *int) {
	v := int64(*p)
	c.I64(&v)
	*p = int(v)
}

// The bulk visits cover a fixed-length array — its length is machine
// shape, not payload — with one buffer grow or one bounds check for the
// whole array. The arrays that carry nearly all of a checkpoint's bytes
// (memory pages, cache tag/valid/dirty arrays) go through these.

// U32s visits every element of s.
func (c Codec) U32s(s []uint32) {
	if c.w != nil {
		if b := c.w.grow(4 * len(s)); b != nil {
			for i, v := range s {
				binary.LittleEndian.PutUint32(b[4*i:], v)
			}
		}
	} else if b := c.r.take(4 * len(s)); b != nil {
		for i := range s {
			s[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	}
}

// U64s visits every element of s.
func (c Codec) U64s(s []uint64) {
	if c.w != nil {
		if b := c.w.grow(8 * len(s)); b != nil {
			for i, v := range s {
				binary.LittleEndian.PutUint64(b[8*i:], v)
			}
		}
	} else if b := c.r.take(8 * len(s)); b != nil {
		for i := range s {
			s[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
}

// I64s visits every element of s.
func (c Codec) I64s(s []int64) {
	if c.w != nil {
		if b := c.w.grow(8 * len(s)); b != nil {
			for i, v := range s {
				binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
			}
		}
	} else if b := c.r.take(8 * len(s)); b != nil {
		for i := range s {
			s[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// Bools visits every element of s, one byte each.
func (c Codec) Bools(s []bool) {
	if c.w != nil {
		if b := c.w.grow(len(s)); b != nil {
			for i, v := range s {
				if v {
					b[i] = 1
				}
			}
		}
	} else if b := c.r.take(len(s)); b != nil {
		for i := range s {
			s[i] = b[i] != 0
		}
	}
}

// Section visits a section tag. Tags delimit each layer's block so a
// payload that has drifted from the walk fails loudly at the seam
// instead of silently misreading the following fields.
func (c Codec) Section(tag uint32) {
	got := tag
	c.U32(&got)
	if c.r != nil && c.r.err == nil && got != tag {
		c.r.fail("section tag %#x, want %#x", got, tag)
	}
}

// Expect is a restore-only check of a decoded value against the value
// the restoring machine was constructed with; a mismatch means the
// snapshot belongs to a differently-shaped machine and the restore
// fails. It does nothing while saving.
func (c Codec) Expect(what string, got, want int64) {
	if c.r != nil && c.r.err == nil && got != want {
		c.r.fail("%s is %d in snapshot but %d in target machine", what, got, want)
	}
}

// The Shape visits cover configuration the restoring machine must
// share: v is written when saving and Expected when restoring, never
// overwritten.

// ShapeU8 is the shape visit for one-byte configuration (scheme, mode).
func (c Codec) ShapeU8(what string, v uint8) {
	got := v
	c.U8(&got)
	c.Expect(what, int64(got), int64(v))
}

// ShapeU32 is the shape visit for 32-bit geometry (set counts, masks).
func (c Codec) ShapeU32(what string, v uint32) {
	got := v
	c.U32(&got)
	c.Expect(what, int64(got), int64(v))
}

// ShapeI64 is the shape visit for int and int64 configuration.
func (c Codec) ShapeI64(what string, v int64) {
	got := v
	c.I64(&got)
	c.Expect(what, got, v)
}

// ShapeStr is the shape visit for names, as a length-prefixed string.
func (c Codec) ShapeStr(what, v string) {
	if c.w != nil {
		c.w.str(v)
	} else if got := c.r.str(); c.r.err == nil && got != v {
		c.r.fail("%s is %q in snapshot but %q in target machine", what, got, v)
	}
}

// Present visits the presence byte of an optional part (a BTB, a chaos
// stream, a watchdog) and reports whether the walk should visit the
// part: here says whether this machine has it, and a snapshot that
// disagrees fails the restore.
func (c Codec) Present(what string, here bool) bool {
	had := here
	c.Bool(&had)
	if had != here {
		c.r.fail("%s presence is %d in snapshot but %d in target machine", what, b2i(had), b2i(here))
	}
	return had && here
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Map walks a map in ascending key order, so identical contents always
// produce identical bytes: a count, then each key followed by whatever
// value visits of its entry. Restoring replaces the map's contents,
// handing value a zero V to fill for each decoded key.
func Map[V any](c Codec, m map[uint32]V, value func(*V)) {
	if c.w != nil {
		keys := make([]uint32, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.w.u32(uint32(len(keys)))
		for _, k := range keys {
			c.w.u32(k)
			v := m[k]
			value(&v)
		}
		return
	}
	clear(m)
	n := c.r.u32()
	for i := uint32(0); i < n && c.r.err == nil; i++ {
		k := c.r.u32()
		var v V
		value(&v)
		if c.r.err == nil {
			m[k] = v
		}
	}
}

// Slice walks a variable-length list in order: a count, then whatever
// elem visits of each element. Restoring truncates *s and appends each
// decoded element.
func Slice[T any](c Codec, s *[]T, elem func(*T)) {
	if c.w != nil {
		c.w.u32(uint32(len(*s)))
		for i := range *s {
			elem(&(*s)[i])
		}
		return
	}
	*s = (*s)[:0]
	n := c.r.u32()
	for i := uint32(0); i < n && c.r.err == nil; i++ {
		var v T
		elem(&v)
		if c.r.err == nil {
			*s = append(*s, v)
		}
	}
}

package mem

import "testing"

// BenchmarkMemAccess measures the functional memory's load path across
// three locality regimes: a single hot page (memo hit), a small working
// set, and one as wide as a streaming multiprocessor cell's (both served
// by the page table).
func BenchmarkMemAccess(b *testing.B) {
	const word = 4

	bench := func(pages int) func(b *testing.B) {
		return func(b *testing.B) {
			m := New()
			for p := 0; p < pages; p++ {
				m.StoreW(uint32(p)<<PageShift, uint32(p))
			}
			b.ResetTimer()
			var sum uint32
			for i := 0; i < b.N; i++ {
				addr := uint32(i%pages)<<PageShift | uint32(i%(pageBytes/word))*word
				sum += m.LoadW(addr)
			}
			sink = sum
		}
	}

	b.Run("same-page", bench(1))
	b.Run("cached-set-16pages", bench(16))
	b.Run("wide-set-1024pages", bench(1024))

	b.Run("store-load-mix", func(b *testing.B) {
		m := New()
		b.ResetTimer()
		var sum uint32
		for i := 0; i < b.N; i++ {
			addr := uint32(i%64)<<PageShift | uint32(i)%pageBytes&^3
			if i&1 == 0 {
				m.StoreW(addr, uint32(i))
			} else {
				sum += m.LoadW(addr)
			}
		}
		sink = sum
	})

	b.Run("hash-64pages", func(b *testing.B) {
		m := New()
		for p := 0; p < 64; p++ {
			m.StoreW(uint32(p)<<PageShift, uint32(p))
		}
		b.ResetTimer()
		var h uint64
		for i := 0; i < b.N; i++ {
			h = m.Hash()
		}
		sink = uint32(h)
	})
}

// sink defeats dead-code elimination of the benchmark loops.
var sink uint32

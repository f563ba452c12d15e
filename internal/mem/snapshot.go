package mem

import (
	"repro/internal/snapshot"
)

// sectionMemory tags the functional-memory block in a snapshot payload.
const sectionMemory = 0x4d454d31 // "MEM1"

// SaveState serializes the memory contents into w.
func (m *Memory) SaveState(w *snapshot.Writer) { m.State(snapshot.Saving(w)) }

// RestoreState replaces the memory contents with the serialized pages,
// dropping anything the memory held before (the restore target is
// normally a freshly built machine, but a reused one restores just as
// correctly).
func (m *Memory) RestoreState(r *snapshot.Reader) { m.State(snapshot.Restoring(r)) }

// State visits every touched page, in ascending page-number order so
// identical contents always produce identical bytes: a page count, then
// each page's number and cells. The last-page memo is derived state:
// never visited, dropped on restore.
//
// A restore drops the old contents but keeps the old pages' storage:
// U64s overwrites a page in full, so a decoded page takes any spare one
// before allocating. A fork's memory is empty when its machine is new
// (programs load their initial data only in a run from scratch); from
// the second fork of a checkpoint on it is the memory of a finished
// fork of the same checkpoint, which holds as many pages as the restore
// needs.
func (m *Memory) State(c snapshot.Codec) {
	c.Section(sectionMemory)
	if c.Saving() {
		n := uint32(m.npages)
		c.U32(&n)
		m.walk(func(pn uint32, p *page) {
			c.U32(&pn)
			c.U64s(p[:])
		})
		return
	}
	spare := make([]*page, 0, m.npages)
	m.walk(func(_ uint32, p *page) { spare = append(spare, p) })
	m.Reset()
	var n uint32
	c.U32(&n)
	for i := uint32(0); i < n && c.Err() == nil; i++ {
		var pn uint32
		c.U32(&pn)
		c.Expect("page number high bits", int64(pn>>pageNumberBits), 0)
		if c.Err() != nil {
			break
		}
		if p := m.page(pn<<PageShift, false); p != nil {
			c.U64s(p[:]) // a repeated page number: the last copy wins
			continue
		}
		var p *page
		if k := len(spare); k > 0 {
			p, spare = spare[k-1], spare[:k-1]
		} else {
			p = new(page)
		}
		if c.U64s(p[:]); c.Err() == nil {
			m.install(pn, p)
		}
	}
}

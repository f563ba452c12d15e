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
// identical contents always produce identical bytes. The page-lookup
// memos are derived state: never visited, dropped on restore.
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
	var spare []*page
	if !c.Saving() {
		spare = make([]*page, 0, len(m.pages))
		for _, p := range m.pages {
			spare = append(spare, p)
		}
		m.Reset()
	}
	snapshot.Map(c, m.pages, func(p **page) {
		if *p == nil { // restoring: Map hands over a zero value to fill
			if n := len(spare); n > 0 {
				*p, spare = spare[n-1], spare[:n-1]
			} else {
				*p = new(page)
			}
		}
		c.U64s((*p)[:])
	})
}

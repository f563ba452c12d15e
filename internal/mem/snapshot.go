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
func (m *Memory) State(c snapshot.Codec) {
	c.Section(sectionMemory)
	if !c.Saving() {
		m.Reset()
	}
	snapshot.Map(c, m.pages, func(p **page) {
		if *p == nil {
			*p = new(page)
		}
		c.U64s((*p)[:])
	})
}

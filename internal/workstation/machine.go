package workstation

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// Machine is one multiple-context processor over the workstation cache
// hierarchy (paper Tables 1-2) and its functional memory: the machine a
// workstation run time-slices its workload on, and the one every other
// uniprocessor driver (the fuzzer's uni and ws cells, the response
// study, asmrun, the root package's API) builds and runs programs on.
type Machine struct {
	Proc      *core.Processor
	Hierarchy *cache.Hierarchy
	Memory    *mem.Memory
}

// NewMachine builds a machine with empty memory.
func NewMachine(cfg core.Config, cp cache.Params) (*Machine, error) {
	return newMachine(cfg, cp, nil)
}

// newMachine is NewMachine over a finished fork's storage: a non-nil
// spare lends its memory pages and cache arrays (cache.NewHierarchyReusing)
// to a machine that a restore walk will overwrite before it runs.
func newMachine(cfg core.Config, cp cache.Params, spare *Machine) (*Machine, error) {
	if spare == nil {
		spare = &Machine{Memory: mem.New()}
	}
	h, err := cache.NewHierarchyReusing(cp, spare.Hierarchy)
	if err != nil {
		return nil, err
	}
	proc, err := core.NewProcessor(cfg, h, spare.Memory)
	if err != nil {
		return nil, err
	}
	return &Machine{Proc: proc, Hierarchy: h, Memory: spare.Memory}, nil
}

// Load binds program p to hardware context ctx (loading its initial data)
// and returns the created thread.
func (m *Machine) Load(ctx int, p *prog.Program) *core.Thread {
	p.LoadInit(m.Memory)
	th := core.NewThread(p.Name, p)
	m.Proc.BindThread(ctx, th)
	return th
}

// Run advances the machine n cycles.
func (m *Machine) Run(n int64) { m.Proc.Run(n) }

// RunUntilHalted runs until every loaded thread halts or limit cycles
// elapse; it reports the cycles executed and whether everything halted.
func (m *Machine) RunUntilHalted(limit int64) (int64, bool) {
	return m.Proc.RunUntilHalted(limit)
}

// Stats returns the machine's issue-slot accounting.
func (m *Machine) Stats() *core.Stats { return &m.Proc.Stats }

// State visits the machine's checkpoint state: the contents of threads
// (every software thread that is or may be bound to a context), the
// context bindings as indices into threads, the processor, the hierarchy
// and the memory. Order matters for restore: threads first, then
// bindings (BindThread resets per-context availability), then the
// processor (which overwrites exactly those fields). A workstation
// checkpoint is the driver's bookkeeping followed by this walk, and the
// fuzzer's Restore cells fork through it.
func (m *Machine) State(c snapshot.Codec, threads []*core.Thread) {
	for _, th := range threads {
		th.State(c)
	}
	// The binding is state, not config: with one scheduling group the
	// workstation binds only at slice 0, so a resumed run cannot rebuild
	// it from the slice index. -1 is an empty slot.
	for ctx := 0; ctx < m.Proc.Cfg.Contexts; ctx++ {
		idx := slices.Index(threads, m.Proc.ThreadAt(ctx))
		c.Int(&idx)
		switch {
		case c.Saving() || c.Err() != nil:
		case idx < -1 || idx >= len(threads):
			c.Expect("bound thread index", int64(idx), -1)
		case idx == -1:
			m.Proc.BindThread(ctx, nil)
		default:
			m.Proc.BindThread(ctx, threads[idx])
		}
	}
	m.Proc.State(c)
	m.Hierarchy.State(c)
	m.Memory.State(c)
}

// Package splash provides the synthetic parallel application suite that
// stands in for the paper's SPLASH programs (Table 9). Each app is a real
// SPMD program in the simulated ISA — threads receive their id and count
// in registers, partition shared data, synchronize with the TAS-based lock
// and barrier library — and reproduces its SPLASH counterpart's reported
// signature:
//
//   - mp3d: high communication miss rate (scattered writes to shared cells)
//   - barnes, water: heavy double-precision divide density (the two apps
//     the paper singles out for large instruction latency)
//   - ocean: nearest-neighbour grid sharing with per-sweep barriers
//   - locus, pthor: task queues under locks (synchronization-bound)
//   - cholesky: a dominant serial section (the one app the paper reports
//     gaining nothing from multiple contexts)
//
// The substitution rationale is given in DESIGN.md §3.
package splash

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
)

// Options parameterize an app build.
type Options struct {
	CodeBase uint32
	DataBase uint32
	DataSize uint32 // 0 selects 32 MiB

	Yield        prog.YieldMode
	AutoTolerate bool

	// NumThreads is the SPMD width the program synchronizes across
	// (processors × contexts).
	NumThreads int

	// Steps is the number of outer time steps; 0 selects the app's
	// default. Very large values make the app effectively endless (used
	// for the uniprocessor SP workload).
	Steps int

	// Scale multiplies data sizes; 0 means 1.
	Scale int
}

func (o Options) normalize(defaultSteps int) Options {
	if o.DataSize == 0 {
		o.DataSize = 32 << 20
	}
	if o.NumThreads == 0 {
		o.NumThreads = 1
	}
	if o.Steps == 0 {
		o.Steps = defaultSteps
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// MPOptions is how every multiprocessor run links an application: the
// address map the mp driver's nodes share, the scheme's
// latency-tolerance instruction (none for the single-context baseline),
// and one SPMD thread per hardware context in the machine.
func MPOptions(s core.Scheme, threads, steps, scale int) Options {
	return Options{
		CodeBase:     0x0100_0000,
		DataBase:     0x5000_0000,
		Yield:        s.YieldMode(),
		AutoTolerate: s != core.Single,
		NumThreads:   threads,
		Steps:        steps,
		Scale:        scale,
	}
}

// App is a buildable SPMD application.
type App struct {
	Name string
	// Build links a fresh program the caller owns and may rewrite.
	Build func(Options) *prog.Program
	// Shared declares that Name identifies Build for the life of the
	// process, as it does for every suite app: Program then links each
	// (Name, Options) once. An ad-hoc app leaves it false and is rebuilt
	// on every Program call.
	Shared bool

	// Racy marks apps with deliberately unsynchronized shared writes
	// (mp3d's cell scatter). Their final memory is scheduling-dependent,
	// so chaos-mode byte-identity checks do not apply to them; for every
	// other app, timing perturbation must leave final memory unchanged.
	Racy bool
}

// Program returns the app linked with o for read-only use: a suite app's
// program is shared by every caller in the process (prog.Shared), so it
// must not be written to.
func (a App) Program(o Options) *prog.Program {
	if !a.Shared {
		return a.Build(o)
	}
	return prog.Shared(a.Name, o, a.Build)
}

// registry is the suite, built once: the app constructors allocate a
// closure each, and grid drivers look an app up per cell.
var registry = sync.OnceValue(func() map[string]App {
	as := []App{MP3D(), Barnes(), Water(), Ocean(), Locus(), PTHOR(), Cholesky()}
	m := make(map[string]App, len(as))
	for _, a := range as {
		a.Shared = true
		m[a.Name] = a
	}
	return m
})

// Registry returns the seven apps by name, in a map the caller owns.
func Registry() map[string]App { return maps.Clone(registry()) }

// Lookup returns the app named name.
func Lookup(name string) (App, error) {
	a, ok := registry()[name]
	if !ok {
		return App{}, fmt.Errorf("splash: unknown app %q", name)
	}
	return a, nil
}

// Register conventions shared by all apps (mp.Run fills R4/R5).
const (
	rTid      = isa.R4
	rNThreads = isa.R5
	rBarrier  = isa.R6
	rSense    = isa.R7
	rTmpA     = isa.R2 // sync-library scratch
	rTmpB     = isa.R3
	rStep     = isa.R26
)

// appBuilder wraps prog.Builder with the SPMD prologue and barrier
// conventions.
type appBuilder struct {
	*prog.Builder
	o Options
}

func newApp(name string, o Options) *appBuilder {
	b := prog.NewBuilder(name, o.CodeBase, o.DataBase, o.DataSize)
	b.SetYield(o.Yield)
	b.SetAutoTolerate(o.AutoTolerate)
	return &appBuilder{Builder: b, o: o}
}

// prologue allocates the global barrier and initializes the sync registers.
// Single-threaded builds (the workstation's SP workload) bake the thread
// identity into the program, since only the multiprocessor runner sets the
// identity registers.
func (b *appBuilder) prologue() {
	bar := b.AllocBarrier()
	b.La(rBarrier, bar)
	b.Li(rSense, 0)
	b.Li(rStep, uint32(b.o.Steps))
	if b.o.NumThreads == 1 {
		b.Li(rTid, 0)
		b.Li(rNThreads, 1)
	}
}

// barrier emits a global barrier across all threads.
func (b *appBuilder) barrier() {
	b.Barrier(rBarrier, rNThreads, rSense, rTmpA, rTmpB)
}

// stepLoop brackets fn with the outer time-step loop and the final halt.
func (b *appBuilder) stepLoop(fn func()) {
	b.Label("step_top")
	fn()
	b.Addi(rStep, rStep, -1)
	b.Bgtz(rStep, "step_top")
	b.barrier()
	b.Halt()
}

// myChunk computes this thread's [start, end) element range over total
// elements into startReg/endReg (clobbers tmp). total must be a multiple
// of the largest thread count used.
func (b *appBuilder) myChunk(total int, startReg, endReg, tmp isa.Reg) {
	b.Li(tmp, uint32(total))
	b.Divu(tmp, tmp, rNThreads) // chunk size
	b.Mul(startReg, rTid, tmp)
	b.Add(endReg, startReg, tmp)
}

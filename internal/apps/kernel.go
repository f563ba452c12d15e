// Package apps provides the synthetic uniprocessor application suite that
// stands in for the paper's SPEC89 programs (Table 5). Each kernel is a
// real program in the simulated ISA — with genuine register dependencies,
// branches, and memory reference patterns — tuned to reproduce its SPEC
// counterpart's dominant behaviour:
//
//   - doduc, li, eqntott, mxm: large code footprints (the IC workload)
//   - cfft2d, gmtry, tomcatv, vpenta: 128-512 KB working sets whose misses
//     mostly hit in the secondary cache (the DC workload)
//   - btrix, cholsky, gmtry, vpenta: page-crossing strides (the DT workload)
//   - emit, cholsky, doduc, matrix300: floating-point divide density (FP)
//
// The substitution rationale is given in DESIGN.md §3.
package apps

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Options parameterize a kernel build.
type Options struct {
	CodeBase uint32
	DataBase uint32
	DataSize uint32 // arena size; 0 selects 32 MiB
	// Yield and AutoTolerate configure the latency-tolerance compilation
	// pass (prog.Builder.SetYield / SetAutoTolerate).
	Yield        prog.YieldMode
	AutoTolerate bool
	// Scale multiplies inner-loop trip counts; 0 means 1.
	Scale int
}

func (o Options) normalize() Options {
	if o.DataSize == 0 {
		o.DataSize = 32 << 20
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// Kernel is a buildable application.
type Kernel struct {
	Name string
	// Build links a fresh program the caller owns and may rewrite.
	Build func(Options) *prog.Program
	// Shared declares that Name identifies Build for the life of the
	// process, as it does for every suite kernel: Program then links each
	// (Name, Options) once. An ad-hoc kernel leaves it false and is
	// rebuilt on every Program call.
	Shared bool
}

// Program returns the kernel linked with o for read-only use: a suite
// kernel's program is shared by every caller in the process (prog.Shared),
// so it must not be written to.
func (k Kernel) Program(o Options) *prog.Program {
	if !k.Shared {
		return k.Build(o)
	}
	return prog.Shared(k.Name, o, k.Build)
}

// newBuilder applies the common option plumbing.
func newBuilder(name string, o Options) *prog.Builder {
	b := prog.NewBuilder(name, o.CodeBase, o.DataBase, o.DataSize)
	b.SetYield(o.Yield)
	b.SetAutoTolerate(o.AutoTolerate)
	return b
}

// registry is the suite, built once: the kernel constructors allocate a
// closure each, and grid drivers look a kernel up per cell.
var registry = sync.OnceValue(func() map[string]Kernel {
	ks := []Kernel{
		Doduc(), Li(), Eqntott(), Matrix300(), Tomcatv(),
		Btrix(), Cholsky(), Cfft2d(), Emit(), Gmtry(), Mxm(), Vpenta(),
	}
	m := make(map[string]Kernel, len(ks))
	for _, k := range ks {
		k.Shared = true
		m[k.Name] = k
	}
	return m
})

// Registry returns all twelve SPEC89-like kernels by name, in a map the
// caller owns.
func Registry() map[string]Kernel { return maps.Clone(registry()) }

// Lookup returns the kernel named name.
func Lookup(name string) (Kernel, error) {
	k, ok := registry()[name]
	if !ok {
		return Kernel{}, fmt.Errorf("apps: unknown kernel %q", name)
	}
	return k, nil
}

// ----- code generation helpers -----
//
// The IC-workload programs need tens of kilobytes of live code. These
// helpers emit varied straight-line blocks the way an aggressively unrolled
// and inlined Fortran/C compilation would, with a deterministic per-seed
// shape.

// xorshift is a tiny deterministic PRNG for code shaping (math/rand would
// also be deterministic, but this keeps codegen self-contained and obvious).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// fpBlock emits n straight-line FP instructions operating on the array at
// baseReg (which must hold a pointer to at least 64 doubles), using
// registers F8..F23. divEvery > 0 inserts an FDivD every divEvery
// instructions.
func fpBlock(b *prog.Builder, rng *xorshift, baseReg isa.Reg, n, divEvery int) {
	fr := func(i int) isa.Reg { return isa.F8 + isa.Reg(i%16) }
	for i := 0; i < n; i++ {
		switch {
		case divEvery > 0 && i%divEvery == divEvery-1:
			b.FDivD(fr(rng.intn(16)), fr(rng.intn(16)), fr(rng.intn(16)))
		case i%7 == 3:
			b.Fld(fr(rng.intn(16)), baseReg, int32(8*rng.intn(64)))
		case i%11 == 5:
			b.Fsd(fr(rng.intn(16)), baseReg, int32(8*rng.intn(64)))
		case i%3 == 0:
			b.FMul(fr(rng.intn(16)), fr(rng.intn(16)), fr(rng.intn(16)))
		default:
			b.FAdd(fr(rng.intn(16)), fr(rng.intn(16)), fr(rng.intn(16)))
		}
	}
}

// intBlock emits n straight-line integer instructions over registers
// R8..R19, loading/storing within 64 words of baseReg.
func intBlock(b *prog.Builder, rng *xorshift, baseReg isa.Reg, n int) {
	ir := func(i int) isa.Reg { return isa.R8 + isa.Reg(i%12) }
	for i := 0; i < n; i++ {
		switch {
		case i%9 == 4:
			b.Lw(ir(rng.intn(12)), baseReg, int32(4*rng.intn(64)))
		case i%13 == 7:
			b.Sw(ir(rng.intn(12)), baseReg, int32(4*rng.intn(64)))
		case i%4 == 1:
			b.Xor(ir(rng.intn(12)), ir(rng.intn(12)), ir(rng.intn(12)))
		case i%5 == 2:
			b.Sll(ir(rng.intn(12)), ir(rng.intn(12)), int32(rng.intn(8)))
		default:
			b.Add(ir(rng.intn(12)), ir(rng.intn(12)), ir(rng.intn(12)))
		}
	}
}

// initDoubles seeds count doubles at base with a smooth nonzero pattern so
// FP kernels never divide by zero.
func initDoubles(b *prog.Builder, base uint32, count int) {
	for i := 0; i < count; i++ {
		b.InitF(base+uint32(8*i), 1.0+float64(i%17)*0.25)
	}
}

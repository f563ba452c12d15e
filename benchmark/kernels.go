package main

import (
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/mp"
	"repro/internal/prog"
)

// stallProgram is the streaming-miss kernel of cmd/bench, restated here
// so the benchmark owns its inputs: each thread sweeps a private 128 KiB
// region at line stride — twice the node cache — once, loading and then
// dirtying every line. The sweep thrashes, so nearly all issue slots are
// memory or switch stalls at any context count: the fast-forward engine's
// home ground.
func stallProgram(threads int) *prog.Program {
	b := prog.NewBuilder("stall", 0x1000, 0x4000_0000, 1<<23)
	b.SetYield(prog.YieldBackoff)
	arr := b.Alloc(uint32(threads)*(128<<10), 64)
	res := b.Alloc(uint32(4*threads), 64)
	b.La(isa.R1, arr)
	b.Sll(isa.R11, mp.TidReg, 17) // tid * 128 KiB
	b.Add(isa.R1, isa.R1, isa.R11)
	b.Li(isa.R7, 0)
	b.Move(isa.R3, isa.R1)
	b.Li(isa.R6, (128<<10)/64)
	b.Label("loop")
	b.Lw(isa.R8, isa.R3, 0)
	b.Add(isa.R7, isa.R7, isa.R8)
	b.Sw(isa.R7, isa.R3, 32) // dirty the line: ownership traffic
	b.Addi(isa.R3, isa.R3, 64)
	b.Addi(isa.R6, isa.R6, -1)
	b.Bgtz(isa.R6, "loop")
	b.Sll(isa.R11, mp.TidReg, 2)
	b.La(isa.R10, res)
	b.Add(isa.R10, isa.R10, isa.R11)
	b.Sw(isa.R7, isa.R10, 0)
	b.Halt()
	return b.MustBuild()
}

// chainProgram is the dependency-bound kernel: a serial chain of
// double-precision divides (61-cycle issue and latency) with one load
// and one store per iteration, so almost every issue slot is a long
// instruction stall rather than a busy slot or a miss. slot separates
// the code and data regions of the programs sharing one processor.
func chainProgram(iters, slot int) *prog.Program {
	b := prog.NewBuilder("chain", 0x0100_0000*uint32(slot+1), 0x4000_0000+0x0200_0000*uint32(slot), 1<<20)
	vals := b.Alloc(64, 64)
	b.InitF(vals, 1e300)
	b.InitF(vals+8, 1.0000001)
	b.La(isa.R1, vals)
	b.Fld(isa.F1, isa.R1, 0)
	b.Fld(isa.F2, isa.R1, 8)
	b.Li(isa.R2, uint32(iters))
	b.Label("loop")
	b.FDivD(isa.F1, isa.F1, isa.F2)
	b.FDivD(isa.F1, isa.F1, isa.F2)
	b.Fsd(isa.F1, isa.R1, 16)
	b.Fld(isa.F3, isa.R1, 16)
	b.FMul(isa.F1, isa.F3, isa.F2)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bgtz(isa.R2, "loop")
	b.Fsd(isa.F1, isa.R1, 24)
	b.Halt()
	return b.MustBuild()
}

// computeProgram is the busy-bound kernel: an endless loop of
// independent single-cycle integer operations, so every slot issues and
// nothing is skippable. It bounds the per-instruction cost of the core.
func computeProgram(slot int) *prog.Program {
	b := prog.NewBuilder("compute", 0x0100_0000*uint32(slot+1), 0x4000_0000+0x0200_0000*uint32(slot), 1<<16)
	for r := isa.R1; r <= isa.R8; r++ {
		b.Li(r, uint32(r)*2654435761)
	}
	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.Add(isa.R9, isa.R1, isa.R2)
		b.Xor(isa.R10, isa.R3, isa.R4)
		b.Sub(isa.R11, isa.R5, isa.R6)
		b.Or(isa.R12, isa.R7, isa.R8)
		b.Addi(isa.R13, isa.R1, 7)
		b.Sll(isa.R14, isa.R2, 3)
		b.And(isa.R15, isa.R3, isa.R5)
		b.Slt(isa.R16, isa.R4, isa.R6)
	}
	b.J("loop")
	return b.MustBuild()
}

// hitMem is a memory system in which every access hits and every fetch
// is ready at once: it isolates the core's own cost from the caches'.
type hitMem struct{}

var _ memsys.System = hitMem{}

func (hitMem) AccessData(addr uint32, write bool, pc uint32, now int64) memsys.DataResult {
	return memsys.DataResult{Hit: true, ReadyAt: now + 2, Class: memsys.HitL1}
}

func (hitMem) FetchInst(addr uint32, now int64) (int64, bool) { return now, false }

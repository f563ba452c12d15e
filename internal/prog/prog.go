// Package prog provides the program representation and the assembler-like
// Builder used to write the synthetic application kernels. It plays the
// role of the paper's compilation pipeline (MIPS compilers + the Twine
// scheduler): kernels are written as scheduled instruction sequences, and
// the builder's yield mode implements the latency-tolerance pass that
// inserts BACKOFF (interleaved scheme) or SWITCH (blocked scheme)
// instructions after long-latency operations.
package prog

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
)

// DataInit records one initial memory value of a program.
type DataInit struct {
	Addr   uint32
	Val    uint64
	Double bool // true: 8-byte store, false: 4-byte word store of low bits
}

// Program is a linked, executable program: a flat instruction slice with
// resolved branch targets, a code base address (for the I-cache), and
// initial data contents.
type Program struct {
	Name   string
	Base   uint32 // byte address of instruction 0; instruction i is at Base+4i
	Insts  []isa.Inst
	Labels map[string]int
	Init   []DataInit

	decodeOnce sync.Once
}

// EnsureDecoded fills every instruction's precomputed issue-stage fields
// (isa.Inst.Decode). Build calls it, so linked programs arrive decoded;
// core.NewThread calls it again to cover hand-assembled Programs built as
// struct literals. Safe under concurrent thread creation.
func (p *Program) EnsureDecoded() {
	p.decodeOnce.Do(func() {
		for i := range p.Insts {
			p.Insts[i].Decode()
		}
	})
}

// PCAddr returns the byte address of instruction index idx.
func (p *Program) PCAddr(idx int) uint32 { return p.Base + uint32(idx)*4 }

// LoadInit writes the program's initial data into m.
func (p *Program) LoadInit(m *mem.Memory) {
	for _, d := range p.Init {
		if d.Double {
			m.StoreD(d.Addr, d.Val)
		} else {
			m.StoreW(d.Addr, uint32(d.Val))
		}
	}
}

// CodeBytes returns the size of the program's code in bytes, which
// determines its instruction-cache footprint.
func (p *Program) CodeBytes() int { return len(p.Insts) * 4 }

// YieldMode selects which latency-tolerance instruction the builder emits
// at yield points (paper Table 4). It corresponds to the scheme the
// program is compiled for.
type YieldMode uint8

const (
	// YieldNone emits nothing: single-context compilation.
	YieldNone YieldMode = iota
	// YieldBackoff emits BACKOFF (interleaved scheme, cost 1).
	YieldBackoff
	// YieldSwitch emits SWITCH (blocked scheme, cost 3).
	YieldSwitch
)

// String returns the mode name.
func (m YieldMode) String() string {
	switch m {
	case YieldNone:
		return "none"
	case YieldBackoff:
		return "backoff"
	case YieldSwitch:
		return "switch"
	}
	return "yield(?)"
}

// autoYieldThreshold: operations with result latency at or above this get
// an automatic yield point when auto-tolerance is enabled. FP and integer
// divides qualify; multiplies and FP adds do not.
const autoYieldThreshold = 30

type fixup struct {
	inst  int
	label string
}

// Builder incrementally assembles a Program. Create one with NewBuilder,
// emit instructions through the mnemonic methods, and call Build. Operand
// misuse (e.g. an FP register in an integer slot) panics immediately:
// kernels are static code and should fail loudly at construction time.
type Builder struct {
	name     string
	base     uint32
	insts    []isa.Inst
	labels   map[string]int
	fixups   []fixup
	inits    []DataInit
	region   isa.Region
	yield    YieldMode
	autoTol  bool
	dataNext uint32
	dataEnd  uint32
	syncSeq  int
}

// NewBuilder returns a builder for a program named name. Code is placed at
// codeBase; data allocations (Alloc) are carved from
// [dataBase, dataBase+dataSize).
func NewBuilder(name string, codeBase, dataBase, dataSize uint32) *Builder {
	return &Builder{
		name:     name,
		base:     codeBase,
		labels:   make(map[string]int),
		dataNext: dataBase,
		dataEnd:  dataBase + dataSize,
	}
}

// SetYield selects the yield mode for subsequently emitted yield points.
func (b *Builder) SetYield(m YieldMode) { b.yield = m }

// SetAutoTolerate enables/disables automatic yield insertion after
// long-latency instructions (divides). This is the latency-tolerance
// compiler pass from the paper's methodology.
func (b *Builder) SetAutoTolerate(on bool) { b.autoTol = on }

// SetRegion tags subsequently emitted instructions with region r.
func (b *Builder) SetRegion(r isa.Region) { b.region = r }

// Region returns the current region tag.
func (b *Builder) Region() isa.Region { return b.region }

// PC returns the index the next emitted instruction will have.
func (b *Builder) PC() int { return len(b.insts) }

// Alloc reserves size bytes aligned to align from the data arena and
// returns the base address.
func (b *Builder) Alloc(size, align uint32) uint32 {
	if align == 0 {
		align = 8
	}
	addr := (b.dataNext + align - 1) &^ (align - 1)
	if addr+size > b.dataEnd {
		panic(fmt.Sprintf("prog %s: data arena overflow (%d bytes requested)", b.name, size))
	}
	b.dataNext = addr + size
	return addr
}

// InitW records an initial 32-bit word value.
func (b *Builder) InitW(addr, v uint32) {
	b.inits = append(b.inits, DataInit{Addr: addr, Val: uint64(v)})
}

// InitF records an initial float64 value.
func (b *Builder) InitF(addr uint32, f float64) {
	b.inits = append(b.inits, DataInit{Addr: addr, Val: math.Float64bits(f), Double: true})
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("prog %s: duplicate label %q", b.name, name))
	}
	b.labels[name] = len(b.insts)
}

// inst is the Builder's one checked emit path: the mnemonic methods, the
// assembler and yield points all come through it. It checks in's operands
// against its opcode's row of the opcode table (isa.Op.Info) and panics on
// misuse, records a branch's label for Build to resolve, tags the
// instruction with the current region and, under auto-tolerance, follows
// a long-latency operation with a yield point. The fields a form does not
// name stay zero (R0), except that a one-register branch's Rt and a
// jump's Rs and Rt are NoReg, and jal's Rd is the link register R31.
func (b *Builder) inst(in isa.Inst, label string) {
	info := in.Op.Info()
	for _, o := range info.Form.Syntax() {
		switch o {
		case isa.OperandTarget:
			in.Target = -1
			b.fixups = append(b.fixups, fixup{len(b.insts), label})
			continue
		case isa.OperandImm, isa.OperandMem:
			if !info.Imm.Contains(in.Imm) {
				panic(fmt.Sprintf("prog: %s immediate %d out of 16-bit range (use Li)", in.Op, in.Imm))
			}
			if o == isa.OperandImm {
				continue
			}
		}
		if r := *in.Field(o); !r.Valid() || r.IsFP() != info.FP.Has(o) {
			class := "integer"
			if info.FP.Has(o) {
				class = "FP"
			}
			panic(fmt.Sprintf("prog: %s needs %s register, got %s", in.Op, class, r))
		}
	}
	switch info.Form {
	case isa.FormBr1:
		in.Rt = isa.NoReg
	case isa.FormJ:
		in.Rs, in.Rt = isa.NoReg, isa.NoReg
	case isa.FormJal:
		in.Rd = isa.R31
	}
	in.Region = b.region
	b.insts = append(b.insts, in)
	if b.autoTol {
		if lat := isa.TimingOf(info.Class).Latency; lat >= autoYieldThreshold {
			b.Yield(int32(lat) - 4)
		}
	}
}

// rrr and rri emit op over Rd, Rs and Rt or Imm; an operand op's form does
// not name is passed as R0 or 0.
func (b *Builder) rrr(op isa.Op, rd, rs, rt isa.Reg) {
	b.inst(isa.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt}, "")
}

func (b *Builder) rri(op isa.Op, rd, rs isa.Reg, imm int32) {
	b.inst(isa.Inst{Op: op, Rd: rd, Rs: rs, Imm: imm}, "")
}

// Integer ALU.

// Add emits rd = rs + rt.
func (b *Builder) Add(rd, rs, rt isa.Reg) { b.rrr(isa.ADD, rd, rs, rt) }

// Addi emits rd = rs + imm (16-bit immediate).
func (b *Builder) Addi(rd, rs isa.Reg, imm int32) { b.rri(isa.ADDI, rd, rs, imm) }

// Sub emits rd = rs - rt.
func (b *Builder) Sub(rd, rs, rt isa.Reg) { b.rrr(isa.SUB, rd, rs, rt) }

// And emits rd = rs & rt.
func (b *Builder) And(rd, rs, rt isa.Reg) { b.rrr(isa.AND, rd, rs, rt) }

// Andi emits rd = rs & uimm16.
func (b *Builder) Andi(rd, rs isa.Reg, imm int32) { b.rri(isa.ANDI, rd, rs, imm) }

// Or emits rd = rs | rt.
func (b *Builder) Or(rd, rs, rt isa.Reg) { b.rrr(isa.OR, rd, rs, rt) }

// Ori emits rd = rs | uimm16.
func (b *Builder) Ori(rd, rs isa.Reg, imm int32) { b.rri(isa.ORI, rd, rs, imm) }

// Xor emits rd = rs ^ rt.
func (b *Builder) Xor(rd, rs, rt isa.Reg) { b.rrr(isa.XOR, rd, rs, rt) }

// Xori emits rd = rs ^ uimm16.
func (b *Builder) Xori(rd, rs isa.Reg, imm int32) { b.rri(isa.XORI, rd, rs, imm) }

// Slt emits rd = (int32(rs) < int32(rt)) ? 1 : 0.
func (b *Builder) Slt(rd, rs, rt isa.Reg) { b.rrr(isa.SLT, rd, rs, rt) }

// Slti emits rd = (int32(rs) < imm) ? 1 : 0.
func (b *Builder) Slti(rd, rs isa.Reg, imm int32) { b.rri(isa.SLTI, rd, rs, imm) }

// Sltu emits rd = (rs < rt) ? 1 : 0 (unsigned).
func (b *Builder) Sltu(rd, rs, rt isa.Reg) { b.rrr(isa.SLTU, rd, rs, rt) }

// Lui emits rd = imm << 16.
func (b *Builder) Lui(rd isa.Reg, imm int32) { b.rri(isa.LUI, rd, isa.R0, imm) }

// Shifts.

// Sll emits rd = rs << imm.
func (b *Builder) Sll(rd, rs isa.Reg, imm int32) { b.rri(isa.SLL, rd, rs, imm) }

// Srl emits rd = rs >> imm (logical).
func (b *Builder) Srl(rd, rs isa.Reg, imm int32) { b.rri(isa.SRL, rd, rs, imm) }

// Sra emits rd = rs >> imm (arithmetic).
func (b *Builder) Sra(rd, rs isa.Reg, imm int32) { b.rri(isa.SRA, rd, rs, imm) }

// Sllv emits rd = rs << (rt & 31).
func (b *Builder) Sllv(rd, rs, rt isa.Reg) { b.rrr(isa.SLLV, rd, rs, rt) }

// Srlv emits rd = rs >> (rt & 31).
func (b *Builder) Srlv(rd, rs, rt isa.Reg) { b.rrr(isa.SRLV, rd, rs, rt) }

// Multiply / divide.

// Mul emits rd = rs * rt (low 32 bits).
func (b *Builder) Mul(rd, rs, rt isa.Reg) { b.rrr(isa.MUL, rd, rs, rt) }

// Div emits rd = int32(rs) / int32(rt). Division by zero yields 0.
func (b *Builder) Div(rd, rs, rt isa.Reg) { b.rrr(isa.DIV, rd, rs, rt) }

// Rem emits rd = int32(rs) % int32(rt). Division by zero yields 0.
func (b *Builder) Rem(rd, rs, rt isa.Reg) { b.rrr(isa.REM, rd, rs, rt) }

// Divu emits rd = rs / rt (unsigned). Division by zero yields 0.
func (b *Builder) Divu(rd, rs, rt isa.Reg) { b.rrr(isa.DIVU, rd, rs, rt) }

// Li loads an arbitrary 32-bit constant, emitting one or two instructions.
func (b *Builder) Li(rd isa.Reg, v uint32) {
	switch {
	case int32(v) >= math.MinInt16 && int32(v) <= math.MaxInt16:
		b.Addi(rd, isa.R0, int32(v))
	case v&0xFFFF == 0:
		b.Lui(rd, int32(v>>16))
	default:
		b.Lui(rd, int32(v>>16))
		b.Ori(rd, rd, int32(v&0xFFFF))
	}
}

// La loads the address addr (an alias of Li for readability).
func (b *Builder) La(rd isa.Reg, addr uint32) { b.Li(rd, addr) }

// Move emits rd = rs (as an OR with R0).
func (b *Builder) Move(rd, rs isa.Reg) { b.rrr(isa.OR, rd, rs, isa.R0) }

// Memory.

// Lw emits rd = mem32[base+off].
func (b *Builder) Lw(rd, base isa.Reg, off int32) { b.rri(isa.LW, rd, base, off) }

// Sw emits mem32[base+off] = rt.
func (b *Builder) Sw(rt, base isa.Reg, off int32) {
	b.inst(isa.Inst{Op: isa.SW, Rs: base, Rt: rt, Imm: off}, "")
}

// Fld emits fd = mem64[base+off].
func (b *Builder) Fld(fd, base isa.Reg, off int32) { b.rri(isa.FLD, fd, base, off) }

// Fsd emits mem64[base+off] = ft.
func (b *Builder) Fsd(ft, base isa.Reg, off int32) {
	b.inst(isa.Inst{Op: isa.FSD, Rs: base, Rt: ft, Imm: off}, "")
}

// Tas emits the atomic test-and-set rd = mem32[base+off]; mem32[...] = 1.
func (b *Builder) Tas(rd, base isa.Reg, off int32) { b.rri(isa.TAS, rd, base, off) }

// Control transfer.

// Beq emits: if rs == rt goto label.
func (b *Builder) Beq(rs, rt isa.Reg, label string) {
	b.inst(isa.Inst{Op: isa.BEQ, Rs: rs, Rt: rt}, label)
}

// Bne emits: if rs != rt goto label.
func (b *Builder) Bne(rs, rt isa.Reg, label string) {
	b.inst(isa.Inst{Op: isa.BNE, Rs: rs, Rt: rt}, label)
}

// Blez emits: if int32(rs) <= 0 goto label.
func (b *Builder) Blez(rs isa.Reg, label string) { b.inst(isa.Inst{Op: isa.BLEZ, Rs: rs}, label) }

// Bgtz emits: if int32(rs) > 0 goto label.
func (b *Builder) Bgtz(rs isa.Reg, label string) { b.inst(isa.Inst{Op: isa.BGTZ, Rs: rs}, label) }

// J emits an unconditional jump to label.
func (b *Builder) J(label string) { b.inst(isa.Inst{Op: isa.J}, label) }

// Jal emits a jump-and-link to label; the return instruction index is
// written to R31.
func (b *Builder) Jal(label string) { b.inst(isa.Inst{Op: isa.JAL}, label) }

// Jr emits an indirect jump to the instruction index held in rs.
func (b *Builder) Jr(rs isa.Reg) { b.inst(isa.Inst{Op: isa.JR, Rs: rs}, "") }

// Floating point.

// FAdd emits fd = fs + ft.
func (b *Builder) FAdd(fd, fs, ft isa.Reg) { b.rrr(isa.FADD, fd, fs, ft) }

// FSub emits fd = fs - ft.
func (b *Builder) FSub(fd, fs, ft isa.Reg) { b.rrr(isa.FSUB, fd, fs, ft) }

// FMul emits fd = fs * ft.
func (b *Builder) FMul(fd, fs, ft isa.Reg) { b.rrr(isa.FMUL, fd, fs, ft) }

// FNeg emits fd = -fs.
func (b *Builder) FNeg(fd, fs isa.Reg) { b.rri(isa.FNEG, fd, fs, 0) }

// FAbs emits fd = |fs|.
func (b *Builder) FAbs(fd, fs isa.Reg) { b.rri(isa.FABS, fd, fs, 0) }

// FDivS emits the single-precision divide fd = fs / ft (31-cycle).
func (b *Builder) FDivS(fd, fs, ft isa.Reg) { b.rrr(isa.FDIVS, fd, fs, ft) }

// FDivD emits the double-precision divide fd = fs / ft (61-cycle).
func (b *Builder) FDivD(fd, fs, ft isa.Reg) { b.rrr(isa.FDIVD, fd, fs, ft) }

// FSqrt emits fd = sqrt(fs), modeled with double-divide timing.
func (b *Builder) FSqrt(fd, fs isa.Reg) { b.rri(isa.FSQRT, fd, fs, 0) }

// FCmpLt emits rd(int) = (fs < ft) ? 1 : 0.
func (b *Builder) FCmpLt(rd, fs, ft isa.Reg) { b.rrr(isa.FCMPLT, rd, fs, ft) }

// FCmpLe emits rd(int) = (fs <= ft) ? 1 : 0.
func (b *Builder) FCmpLe(rd, fs, ft isa.Reg) { b.rrr(isa.FCMPLE, rd, fs, ft) }

// FCvt emits fd = trunc(fs) as a float64 integral value.
func (b *Builder) FCvt(fd, fs isa.Reg) { b.rri(isa.FCVTIW, fd, fs, 0) }

// Mtc1 emits fd = float64(int32(rs)).
func (b *Builder) Mtc1(fd, rs isa.Reg) { b.rri(isa.MTC1, fd, rs, 0) }

// Mfc1 emits rd = int32(fs) (truncating).
func (b *Builder) Mfc1(rd, fs isa.Reg) { b.rri(isa.MFC1, rd, fs, 0) }

// Special.

// Nop emits a no-op.
func (b *Builder) Nop() { b.inst(isa.Inst{Op: isa.NOP}, "") }

// Halt retires the thread.
func (b *Builder) Halt() { b.inst(isa.Inst{Op: isa.HALT}, "") }

// Trap emits a software exception with the given code: the thread's EPC
// receives the next PC and control enters its trap handler (paper §6).
func (b *Builder) Trap(code int32) { b.inst(isa.Inst{Op: isa.TRAP, Imm: code}, "") }

// Eret returns from a trap handler to the thread's EPC.
func (b *Builder) Eret() { b.inst(isa.Inst{Op: isa.ERET}, "") }

// Yield emits a latency-tolerance point: BACKOFF cycles (interleaved
// compilation), SWITCH cycles (blocked compilation), or nothing
// (single-context compilation), per the builder's yield mode.
func (b *Builder) Yield(cycles int32) {
	if cycles <= 0 {
		return
	}
	switch b.yield {
	case YieldBackoff:
		b.inst(isa.Inst{Op: isa.BACKOFF, Imm: cycles}, "")
	case YieldSwitch:
		b.inst(isa.Inst{Op: isa.SWITCH, Imm: cycles}, "")
	}
}

// Build resolves labels and returns the linked program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("prog %s: undefined label %q", b.name, f.label)
		}
		b.insts[f.inst].Target = int32(idx)
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	p := &Program{
		Name:   b.name,
		Base:   b.base,
		Insts:  append([]isa.Inst(nil), b.insts...),
		Labels: labels,
		Init:   append([]DataInit(nil), b.inits...),
	}
	p.EnsureDecoded()
	return p, nil
}

// MustBuild is Build that panics on error; kernels use it because their
// labels are static.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Listing renders the program as annotated assembly: label definitions,
// instruction indexes and disassembly — the inverse of the assembler, for
// debugging and for asmrun's -list flag.
func (p *Program) Listing() string {
	byIndex := make(map[int][]string)
	for name, idx := range p.Labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	var sb []byte
	for i, in := range p.Insts {
		for _, l := range byIndex[i] {
			sb = append(sb, (l + ":\n")...)
		}
		region := ""
		if in.Region == isa.RegionSync {
			region = "  ; sync"
		}
		sb = append(sb, fmt.Sprintf("%5d  %s%s\n", i, in.String(), region)...)
	}
	return string(sb)
}

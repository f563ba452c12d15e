// Package isa defines the instruction-set architecture simulated by this
// repository: a MIPS-II-like, 32-bit RISC instruction set with no branch or
// load delay slots, as modeled in Laudon, Gupta & Horowitz, "Interleaving: A
// Multithreading Technique Targeting Multiprocessors and Workstations"
// (ASPLOS 1994).
//
// The package is purely declarative: it defines registers, opcodes,
// instruction classes and their issue/latency timings (paper Table 3).
// Functional semantics live in the core engine; program construction lives
// in internal/prog.
//
// Each opcode has one row in the opcode table (Op.Info): its mnemonic, its
// operand form, which register operands are floating point, the range of
// its immediate and its timing class. Everything that lists opcodes reads
// that row: Op.String, the disassembler (Inst.Format), the decoded sources
// and destination (Srcs, Dest), and in internal/prog the assembler's
// operand parsing and the Builder's operand checks.
//
// Disassembly writes a branch target as its instruction index after a
// prefix: "@N" in listings and traces (Inst.String), "LN" in source meant
// to be assembled again, where it names a label LN defined before
// instruction N.
package isa

import (
	"fmt"
	"math"
	"slices"
)

// Reg names an architectural register. Values 0-31 are the integer
// registers (R0 is hardwired to zero); values 32-63 are the floating-point
// registers, modeled as 32 double-precision registers. NoReg marks an
// absent operand.
type Reg uint8

// NoReg marks an unused register operand slot.
const NoReg Reg = 0xFF

// NumRegs is the size of the combined architectural register file
// (32 integer + 32 floating point).
const NumRegs = 64

// Integer registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// Floating-point registers.
const (
	F0 Reg = iota + 32
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
	F16
	F17
	F18
	F19
	F20
	F21
	F22
	F23
	F24
	F25
	F26
	F27
	F28
	F29
	F30
	F31
)

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= 32 && r < 64 }

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// String returns the assembler name of the register (r4, f12, ...).
func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", r-32)
	case r.Valid():
		return fmt.Sprintf("r%d", r)
	default:
		return fmt.Sprintf("reg(%d)", uint8(r))
	}
}

// Op is an operation code.
type Op uint8

// Operation codes. The set is intentionally small: enough to express the
// synthetic SPEC89- and SPLASH-like kernels, the synchronization library,
// and the two latency-tolerance instructions the paper adds (SWITCH for the
// blocked scheme, BACKOFF for the interleaved scheme).
const (
	NOP Op = iota

	// Integer ALU (latency 1).
	ADD  // rd = rs + rt
	ADDI // rd = rs + imm
	SUB  // rd = rs - rt
	AND  // rd = rs & rt
	ANDI // rd = rs & uimm
	OR   // rd = rs | rt
	ORI  // rd = rs | uimm
	XOR  // rd = rs ^ rt
	XORI // rd = rs ^ uimm
	SLT  // rd = (int32(rs) < int32(rt)) ? 1 : 0
	SLTI // rd = (int32(rs) < imm) ? 1 : 0
	SLTU // rd = (rs < rt) ? 1 : 0
	LUI  // rd = imm << 16

	// Shifts (latency 2 per Table 3).
	SLL // rd = rs << (imm&31)
	SRL // rd = rs >> (imm&31) logical
	SRA // rd = rs >> (imm&31) arithmetic
	SLLV
	SRLV

	// Integer multiply / divide (multi-cycle, non-pipelined).
	MUL  // rd = rs * rt (low 32 bits)
	DIV  // rd = int32(rs) / int32(rt)
	REM  // rd = int32(rs) % int32(rt)
	DIVU // rd = rs / rt

	// Memory (integer word and FP double).
	LW  // rd = mem32[rs + imm]
	SW  // mem32[rs + imm] = rt
	FLD // fd = mem64[rs + imm]
	FSD // mem64[rs + imm] = ft

	// Atomic read-modify-write: rd = mem32[rs+imm]; mem32[rs+imm] = 1.
	// Used to build spin locks; requires exclusive ownership of the line,
	// so it is treated as a write by the coherence protocol.
	TAS

	// Control transfer. Branches resolve in EX; a 2048-entry BTB hides
	// the taken-branch penalty when it predicts correctly.
	BEQ  // if rs == rt goto target
	BNE  // if rs != rt goto target
	BLEZ // if int32(rs) <= 0 goto target
	BGTZ // if int32(rs) > 0 goto target
	J    // goto target
	JAL  // rd = return index; goto target
	JR   // goto rs (instruction index held in register)

	// Floating point (double unless noted). Add-class ops have latency 5.
	FADD
	FSUB
	FMUL
	FNEG
	FABS
	FCVTIW // fd = trunc(fs) as a float64 integral value (mnemonic fcvt)
	FCMPLT // rd (int) = (fs < ft) ? 1 : 0
	FCMPLE // rd (int) = (fs <= ft) ? 1 : 0
	FDIVS  // single-precision divide: 31-cycle issue and latency
	FDIVD  // double-precision divide: 61-cycle issue and latency
	FSQRT  // modeled with double-divide timing

	// Register-file moves (latency 2).
	MTC1 // fd = float64(int32(rs))  (move+convert int -> fp)
	MFC1 // rd = int32(fs)           (truncating convert fp -> int)

	// Latency-tolerance instructions (paper Table 4).
	SWITCH  // blocked scheme: explicit context switch, unavailable imm cycles
	BACKOFF // interleaved scheme: context unavailable imm cycles

	// Software exception entry and return (paper §6's EPC machinery:
	// each context has its own exception PC register). TRAP saves the
	// next PC in the thread's EPC and jumps to its trap handler; ERET
	// resumes at the EPC.
	TRAP
	ERET

	// HALT retires the thread.
	HALT

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Form is an opcode's operand shape: the fields its instructions use and
// how the assembler writes them (Syntax).
type Form uint8

// Operand forms, each with an example.
const (
	FormNone  Form = iota // nop
	FormImm               // trap 3
	FormRRR               // add rd, rs, rt
	FormRRI               // addi rd, rs, imm
	FormRR                // fneg fd, fs
	FormLui               // lui rd, imm
	FormLoad              // lw rd, imm(rs)
	FormStore             // sw rt, imm(rs)
	FormBr2               // beq rs, rt, target
	FormBr1               // blez rs, target
	FormJ                 // j target
	FormJal               // jal target (Rd is the link register, R31)
	FormJr                // jr rs
)

// Operand is one operand of a form's assembler syntax. A form's register
// operands are read, except Rd, which is written.
type Operand uint8

// Operands. A memory operand is imm(rs).
const (
	OperandRd Operand = iota
	OperandRs
	OperandRt
	OperandImm
	OperandMem
	OperandTarget
)

var syntax = [...][]Operand{
	FormNone:  nil,
	FormImm:   {OperandImm},
	FormRRR:   {OperandRd, OperandRs, OperandRt},
	FormRRI:   {OperandRd, OperandRs, OperandImm},
	FormRR:    {OperandRd, OperandRs},
	FormLui:   {OperandRd, OperandImm},
	FormLoad:  {OperandRd, OperandMem},
	FormStore: {OperandRt, OperandMem},
	FormBr2:   {OperandRs, OperandRt, OperandTarget},
	FormBr1:   {OperandRs, OperandTarget},
	FormJ:     {OperandTarget},
	FormJal:   {OperandTarget},
	FormJr:    {OperandRs},
}

// Syntax returns the form's operands in assembler order.
func (f Form) Syntax() []Operand { return syntax[f] }

// Has reports whether the form has operand o.
func (f Form) Has(o Operand) bool { return slices.Contains(syntax[f], o) }

// fields is, per form, the register fields it reads and whether it writes
// Rd, derived from its syntax once for Decode.
var fields = func() (u [len(syntax)]struct{ rs, rt, rd bool }) {
	for f, ops := range syntax {
		u[f].rs = slices.Contains(ops, OperandRs) || slices.Contains(ops, OperandMem)
		u[f].rt = slices.Contains(ops, OperandRt)
		u[f].rd = slices.Contains(ops, OperandRd) || Form(f) == FormJal
	}
	return u
}()

// OperandSet is a set of operands.
type OperandSet uint8

// The register operands as sets, for OpInfo.FP.
const (
	fpRd OperandSet = 1 << OperandRd
	fpRs OperandSet = 1 << OperandRs
	fpRt OperandSet = 1 << OperandRt
)

// Has reports whether o is in the set.
func (s OperandSet) Has(o Operand) bool { return s&(1<<o) != 0 }

// ImmRange is the range an opcode's immediate or displacement must lie in.
type ImmRange uint8

// Immediate ranges.
const (
	immSigned16   ImmRange = iota // -32768..32767
	immUnsigned16                 // 0..65535
	immAny                        // any int32
)

// Contains reports whether v lies in the range.
func (r ImmRange) Contains(v int32) bool {
	switch r {
	case immSigned16:
		return v >= math.MinInt16 && v <= math.MaxInt16
	case immUnsigned16:
		return v >= 0 && v <= math.MaxUint16
	}
	return true
}

// OpInfo is an opcode's row of the opcode table.
type OpInfo struct {
	Name string // assembler mnemonic
	Form Form
	// FP holds the register operands that name floating-point registers;
	// the others, and a memory operand's base, name integer registers.
	FP    OperandSet
	Imm   ImmRange
	Class Class // timing class (paper Table 3)
}

// ops is the opcode table.
var ops = [NumOps]OpInfo{
	NOP: {Name: "nop", Class: ClassNop},

	ADD:  {Name: "add", Form: FormRRR, Class: ClassIntALU},
	ADDI: {Name: "addi", Form: FormRRI, Class: ClassIntALU},
	SUB:  {Name: "sub", Form: FormRRR, Class: ClassIntALU},
	AND:  {Name: "and", Form: FormRRR, Class: ClassIntALU},
	ANDI: {Name: "andi", Form: FormRRI, Class: ClassIntALU},
	OR:   {Name: "or", Form: FormRRR, Class: ClassIntALU},
	ORI:  {Name: "ori", Form: FormRRI, Class: ClassIntALU, Imm: immUnsigned16},
	XOR:  {Name: "xor", Form: FormRRR, Class: ClassIntALU},
	XORI: {Name: "xori", Form: FormRRI, Class: ClassIntALU},
	SLT:  {Name: "slt", Form: FormRRR, Class: ClassIntALU},
	SLTI: {Name: "slti", Form: FormRRI, Class: ClassIntALU},
	SLTU: {Name: "sltu", Form: FormRRR, Class: ClassIntALU},
	LUI:  {Name: "lui", Form: FormLui, Class: ClassIntALU, Imm: immUnsigned16},

	SLL:  {Name: "sll", Form: FormRRI, Class: ClassShift},
	SRL:  {Name: "srl", Form: FormRRI, Class: ClassShift},
	SRA:  {Name: "sra", Form: FormRRI, Class: ClassShift},
	SLLV: {Name: "sllv", Form: FormRRR, Class: ClassShift},
	SRLV: {Name: "srlv", Form: FormRRR, Class: ClassShift},

	MUL:  {Name: "mul", Form: FormRRR, Class: ClassIntMul},
	DIV:  {Name: "div", Form: FormRRR, Class: ClassIntDiv},
	REM:  {Name: "rem", Form: FormRRR, Class: ClassIntDiv},
	DIVU: {Name: "divu", Form: FormRRR, Class: ClassIntDiv},

	LW:  {Name: "lw", Form: FormLoad, Class: ClassLoad},
	SW:  {Name: "sw", Form: FormStore, Class: ClassStore},
	FLD: {Name: "fld", Form: FormLoad, Class: ClassLoad, FP: fpRd},
	FSD: {Name: "fsd", Form: FormStore, Class: ClassStore, FP: fpRt},
	TAS: {Name: "tas", Form: FormLoad, Class: ClassAtomic},

	BEQ:  {Name: "beq", Form: FormBr2, Class: ClassBranch},
	BNE:  {Name: "bne", Form: FormBr2, Class: ClassBranch},
	BLEZ: {Name: "blez", Form: FormBr1, Class: ClassBranch},
	BGTZ: {Name: "bgtz", Form: FormBr1, Class: ClassBranch},
	J:    {Name: "j", Form: FormJ, Class: ClassBranch},
	JAL:  {Name: "jal", Form: FormJal, Class: ClassBranch},
	JR:   {Name: "jr", Form: FormJr, Class: ClassBranch},

	FADD:   {Name: "fadd", Form: FormRRR, Class: ClassFPAdd, FP: fpRd | fpRs | fpRt},
	FSUB:   {Name: "fsub", Form: FormRRR, Class: ClassFPAdd, FP: fpRd | fpRs | fpRt},
	FMUL:   {Name: "fmul", Form: FormRRR, Class: ClassFPAdd, FP: fpRd | fpRs | fpRt},
	FNEG:   {Name: "fneg", Form: FormRR, Class: ClassFPAdd, FP: fpRd | fpRs},
	FABS:   {Name: "fabs", Form: FormRR, Class: ClassFPAdd, FP: fpRd | fpRs},
	FCVTIW: {Name: "fcvt", Form: FormRR, Class: ClassFPAdd, FP: fpRd | fpRs},
	FCMPLT: {Name: "fcmplt", Form: FormRRR, Class: ClassFPAdd, FP: fpRs | fpRt},
	FCMPLE: {Name: "fcmple", Form: FormRRR, Class: ClassFPAdd, FP: fpRs | fpRt},
	FDIVS:  {Name: "fdivs", Form: FormRRR, Class: ClassFPDivS, FP: fpRd | fpRs | fpRt},
	FDIVD:  {Name: "fdivd", Form: FormRRR, Class: ClassFPDivD, FP: fpRd | fpRs | fpRt},
	FSQRT:  {Name: "fsqrt", Form: FormRR, Class: ClassFPDivD, FP: fpRd | fpRs},

	MTC1: {Name: "mtc1", Form: FormRR, Class: ClassMove, FP: fpRd},
	MFC1: {Name: "mfc1", Form: FormRR, Class: ClassMove, FP: fpRs},

	SWITCH:  {Name: "switch", Form: FormImm, Class: ClassSwitch, Imm: immAny},
	BACKOFF: {Name: "backoff", Form: FormImm, Class: ClassBackoff, Imm: immAny},
	TRAP:    {Name: "trap", Form: FormImm, Class: ClassBranch, Imm: immAny},
	ERET:    {Name: "eret", Class: ClassBranch},
	HALT:    {Name: "halt", Class: ClassHalt},
}

// Info returns the opcode's row of the opcode table.
func (o Op) Info() OpInfo { return ops[o] }

var byName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op, info := range ops {
		m[info.Name] = Op(op)
	}
	return m
}()

// Lookup returns the opcode whose mnemonic is name.
func Lookup(name string) (Op, bool) {
	op, ok := byName[name]
	return op, ok
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < NumOps {
		return ops[o].Name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Region tags the code region an instruction belongs to; the simulator uses
// it to attribute stall time, mirroring how the paper separates
// "synchronization" time from compute time in the SPLASH breakdowns.
type Region uint8

const (
	// RegionNormal is ordinary application code.
	RegionNormal Region = iota
	// RegionSync is synchronization-library code (locks, barriers, spin
	// loops); busy and stall slots in this region are charged to the
	// synchronization category.
	RegionSync
)

// Inst is a single decoded instruction. Programs are slices of Inst;
// the program counter is an index into that slice, and the instruction's
// byte address (for the I-cache) is program base + 4*index.
type Inst struct {
	Op     Op
	Rd     Reg   // destination register, NoReg if none
	Rs     Reg   // first source, NoReg if none
	Rt     Reg   // second source, NoReg if none
	Imm    int32 // immediate / displacement / unavailability cycles
	Target int32 // branch/jump target (instruction index), resolved by the linker
	Region Region

	// Decoded fields, filled once by Decode (prog.Builder.Build decodes
	// every program it links). The issue stage reads these instead of
	// re-deriving timing and operands from Op on every slot.
	TM         Timing // == Op.Timing()
	SrcA, SrcB Reg    // == Srcs()
	Dst        Reg    // == Dest()
}

// Decode fills the precomputed issue-stage fields (TM, SrcA/SrcB, Dst)
// from the architectural ones. Idempotent; a zero Inst is NOT decoded —
// its Dst would wrongly read as R0 — so every execution path must go
// through a decoded Program.
func (i *Inst) Decode() {
	i.TM = i.Op.Timing()
	i.SrcA, i.SrcB = i.Srcs()
	i.Dst = i.Dest()
}

// Field returns the register field operand o names — Rd, Rs or Rt; Rs for
// a memory operand's base — or nil for an immediate or a target.
func (i *Inst) Field(o Operand) *Reg {
	switch o {
	case OperandRd:
		return &i.Rd
	case OperandRs, OperandMem:
		return &i.Rs
	case OperandRt:
		return &i.Rt
	}
	return nil
}

// Dest returns the destination register, or NoReg for instructions that
// write none.
func (i *Inst) Dest() Reg {
	if i.HasDest() {
		return i.Rd
	}
	return NoReg
}

// HasDest reports whether the instruction writes a register: its form
// names Rd, or it is jal.
func (i *Inst) HasDest() bool { return fields[ops[i.Op].Form].rd }

// Srcs returns the registers the instruction reads, from Rs then Rt; an
// unused slot is NoReg. A store reads its base and its value, a branch
// its comparands.
func (i *Inst) Srcs() (a, b Reg) {
	a, b = NoReg, NoReg
	u := fields[ops[i.Op].Form]
	if u.rs {
		a = i.Rs
	}
	if u.rt {
		b = i.Rt
	}
	return a, b
}

// IsBranch reports whether the instruction is a conditional branch or jump.
func (i *Inst) IsBranch() bool {
	switch i.Op {
	case BEQ, BNE, BLEZ, BGTZ, J, JAL, JR:
		return true
	}
	return false
}

// IsMem reports whether the instruction accesses data memory.
func (i *Inst) IsMem() bool {
	switch i.Op {
	case LW, SW, FLD, FSD, TAS:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory (TAS counts:
// it requires exclusive ownership).
func (i *Inst) IsStore() bool {
	switch i.Op {
	case SW, FSD, TAS:
		return true
	}
	return false
}

// String disassembles the instruction, writing a branch target as @N.
func (i Inst) String() string { return i.Format("@") }

// Format disassembles the instruction in the assembler's syntax, writing a
// branch target N as prefix followed by N (see the package doc).
func (i Inst) Format(prefix string) string {
	s := i.Op.String()
	if int(i.Op) >= NumOps {
		return s
	}
	sep := " "
	for _, o := range ops[i.Op].Form.Syntax() {
		switch o {
		case OperandImm:
			s += fmt.Sprintf("%s%d", sep, i.Imm)
		case OperandMem:
			s += fmt.Sprintf("%s%d(%s)", sep, i.Imm, i.Rs)
		case OperandTarget:
			s += fmt.Sprintf("%s%s%d", sep, prefix, i.Target)
		default:
			s += sep + i.Field(o).String()
		}
		sep = ", "
	}
	return s
}

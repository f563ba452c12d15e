package isa

import (
	"fmt"
	"testing"
)

func TestRegClassification(t *testing.T) {
	if R0.IsFP() {
		t.Error("R0 classified as FP")
	}
	if !F0.IsFP() {
		t.Error("F0 not classified as FP")
	}
	if F31.IsFP() != true || !F31.Valid() {
		t.Error("F31 misclassified")
	}
	if NoReg.Valid() {
		t.Error("NoReg reported valid")
	}
	if got := F12.String(); got != "f12" {
		t.Errorf("F12.String() = %q, want f12", got)
	}
	if got := R7.String(); got != "r7" {
		t.Errorf("R7.String() = %q, want r7", got)
	}
}

func TestEveryOpHasClassAndName(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if op != NOP && op.Class() == ClassNop {
			t.Errorf("op %v has no class assigned", uint8(op))
		}
		if op.String() == "" {
			t.Errorf("op %v has no name", uint8(op))
		}
	}
}

func TestTable3Timings(t *testing.T) {
	// The intact rows of paper Table 3.
	cases := []struct {
		op            Op
		issue, setLat int
	}{
		{SLL, 1, 2},  // shift: 1 / 2
		{LW, 1, 3},   // load: 1 / 3
		{FADD, 1, 5}, // FP add class: 1 / 5
		{FMUL, 1, 5}, // FP multiply shares the add-class row
		{FDIVD, 61, 61},
		{FDIVS, 31, 31},
		{ADD, 1, 1},
	}
	for _, c := range cases {
		tm := c.op.Timing()
		if tm.Issue != c.issue || tm.Latency != c.setLat {
			t.Errorf("%v timing = %d/%d, want %d/%d", c.op, tm.Issue, tm.Latency, c.issue, c.setLat)
		}
	}
}

func TestInstPredicates(t *testing.T) {
	lw := Inst{Op: LW, Rd: R1, Rs: R2}
	if !lw.IsMem() || lw.IsStore() || lw.IsBranch() {
		t.Error("LW predicates wrong")
	}
	sw := Inst{Op: SW, Rt: R1, Rs: R2}
	if !sw.IsMem() || !sw.IsStore() {
		t.Error("SW predicates wrong")
	}
	tas := Inst{Op: TAS, Rd: R1, Rs: R2}
	if !tas.IsMem() || !tas.IsStore() {
		t.Error("TAS must count as a store for coherence")
	}
	beq := Inst{Op: BEQ, Rs: R1, Rt: R2}
	if !beq.IsBranch() || beq.IsMem() {
		t.Error("BEQ predicates wrong")
	}
	add := Inst{Op: ADD, Rd: R1, Rs: R2, Rt: R3}
	if !add.HasDest() || add.Dest() != R1 {
		t.Error("ADD destination wrong")
	}
	if (&Inst{Op: SW, Rt: R1, Rs: R2}).HasDest() {
		t.Error("SW should have no destination")
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: R1, Rs: R2, Rt: R3}, "add r1, r2, r3"},
		{Inst{Op: LW, Rd: R4, Rs: R5, Imm: 16}, "lw r4, 16(r5)"},
		{Inst{Op: SW, Rt: R4, Rs: R5, Imm: -8}, "sw r4, -8(r5)"},
		{Inst{Op: BEQ, Rs: R1, Rt: R0, Target: 42}, "beq r1, r0, @42"},
		{Inst{Op: BACKOFF, Imm: 57}, "backoff 57"},
		{Inst{Op: FADD, Rd: F1, Rs: F2, Rt: F3}, "fadd f1, f2, f3"},
		{Inst{Op: HALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}

func TestLongLatencyThreshold(t *testing.T) {
	// FP add-class hazards (up to 4 stall cycles) must classify as short;
	// divides as long. This drives the Figure 8/9 split.
	if FADD.Timing().Latency-1 > LongLatencyThreshold {
		t.Error("FP add stall should be classified short")
	}
	if FDIVD.Timing().Latency-1 <= LongLatencyThreshold {
		t.Error("FP divide stall should be classified long")
	}
}

func TestDisassemblyAllOps(t *testing.T) {
	// Every opcode must disassemble to something containing its mnemonic.
	for op := Op(0); int(op) < NumOps; op++ {
		in := Inst{Op: op, Rd: R1, Rs: R2, Rt: R3, Imm: 4, Target: 9}
		s := in.String()
		if s == "" {
			t.Errorf("op %v: empty disassembly", op)
		}
	}
	// Spot-check the special formats.
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: J, Target: 5}, "j @5"},
		{Inst{Op: JAL, Rd: R31, Target: 5}, "jal @5"},
		{Inst{Op: JR, Rs: R31}, "jr r31"},
		{Inst{Op: BLEZ, Rs: R2, Target: 3}, "blez r2, @3"},
		{Inst{Op: LUI, Rd: R4, Imm: 16}, "lui r4, 16"},
		{Inst{Op: SLL, Rd: R4, Rs: R5, Imm: 3}, "sll r4, r5, 3"},
		{Inst{Op: TAS, Rd: R4, Rs: R5, Imm: 0}, "tas r4, 0(r5)"},
		{Inst{Op: SWITCH, Imm: 9}, "switch 9"},
		{Inst{Op: FNEG, Rd: F1, Rs: F2, Rt: NoReg}, "fneg f1, f2"},
		{Inst{Op: NOP}, "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}

// TestEveryOpPinned pins, for every opcode over one operand pattern, the
// disassembly, the source registers and the destination: what listings,
// traces and the issue stage's decoded operands read.
func TestEveryOpPinned(t *testing.T) {
	want := []string{
		"nop | - - | -",
		"add r1, r2, r3 | r2 r3 | r1",
		"addi r1, r2, -5 | r2 - | r1",
		"sub r1, r2, r3 | r2 r3 | r1",
		"and r1, r2, r3 | r2 r3 | r1",
		"andi r1, r2, -5 | r2 - | r1",
		"or r1, r2, r3 | r2 r3 | r1",
		"ori r1, r2, -5 | r2 - | r1",
		"xor r1, r2, r3 | r2 r3 | r1",
		"xori r1, r2, -5 | r2 - | r1",
		"slt r1, r2, r3 | r2 r3 | r1",
		"slti r1, r2, -5 | r2 - | r1",
		"sltu r1, r2, r3 | r2 r3 | r1",
		"lui r1, -5 | - - | r1",
		"sll r1, r2, -5 | r2 - | r1",
		"srl r1, r2, -5 | r2 - | r1",
		"sra r1, r2, -5 | r2 - | r1",
		"sllv r1, r2, r3 | r2 r3 | r1",
		"srlv r1, r2, r3 | r2 r3 | r1",
		"mul r1, r2, r3 | r2 r3 | r1",
		"div r1, r2, r3 | r2 r3 | r1",
		"rem r1, r2, r3 | r2 r3 | r1",
		"divu r1, r2, r3 | r2 r3 | r1",
		"lw r1, -5(r2) | r2 - | r1",
		"sw r3, -5(r2) | r2 r3 | -",
		"fld r1, -5(r2) | r2 - | r1",
		"fsd r3, -5(r2) | r2 r3 | -",
		"tas r1, -5(r2) | r2 - | r1",
		"beq r2, r3, @7 | r2 r3 | -",
		"bne r2, r3, @7 | r2 r3 | -",
		"blez r2, @7 | r2 - | -",
		"bgtz r2, @7 | r2 - | -",
		"j @7 | - - | -",
		"jal @7 | - - | r1",
		"jr r2 | r2 - | -",
		"fadd r1, r2, r3 | r2 r3 | r1",
		"fsub r1, r2, r3 | r2 r3 | r1",
		"fmul r1, r2, r3 | r2 r3 | r1",
		"fneg r1, r2 | r2 - | r1",
		"fabs r1, r2 | r2 - | r1",
		"fcvt r1, r2 | r2 - | r1",
		"fcmplt r1, r2, r3 | r2 r3 | r1",
		"fcmple r1, r2, r3 | r2 r3 | r1",
		"fdivs r1, r2, r3 | r2 r3 | r1",
		"fdivd r1, r2, r3 | r2 r3 | r1",
		"fsqrt r1, r2 | r2 - | r1",
		"mtc1 r1, r2 | r2 - | r1",
		"mfc1 r1, r2 | r2 - | r1",
		"switch -5 | - - | -",
		"backoff -5 | - - | -",
		"trap -5 | - - | -",
		"eret | - - | -",
		"halt | - - | -",
	}
	if len(want) != NumOps {
		t.Fatalf("%d pins for %d opcodes", len(want), NumOps)
	}
	for op := Op(0); int(op) < NumOps; op++ {
		in := Inst{Op: op, Rd: R1, Rs: R2, Rt: R3, Imm: -5, Target: 7}
		a, b := in.Srcs()
		if got := fmt.Sprintf("%s | %v %v | %v", in.String(), a, b, in.Dest()); got != want[op] {
			t.Errorf("op %d: got %q, want %q", op, got, want[op])
		}
		if in.HasDest() != (in.Dest() != NoReg) {
			t.Errorf("%v: HasDest %v, Dest %v", op, in.HasDest(), in.Dest())
		}
	}
}

func TestSrcsAllOps(t *testing.T) {
	// Srcs must return valid-or-NoReg registers for every opcode.
	for op := Op(0); int(op) < NumOps; op++ {
		in := Inst{Op: op, Rd: R1, Rs: R2, Rt: R3}
		a, b := in.Srcs()
		for _, r := range []Reg{a, b} {
			if r != NoReg && !r.Valid() {
				t.Errorf("op %v: source %v invalid", op, r)
			}
		}
	}
	// Stores source base and value.
	sw := Inst{Op: SW, Rs: R2, Rt: R3}
	if a, b := sw.Srcs(); a != R2 || b != R3 {
		t.Errorf("SW srcs = %v, %v", a, b)
	}
	// LUI sources nothing.
	lui := Inst{Op: LUI, Rd: R1, Imm: 3}
	if a, b := lui.Srcs(); a != NoReg || b != NoReg {
		t.Errorf("LUI srcs = %v, %v", a, b)
	}
}

func TestTimingTable(t *testing.T) {
	for c := Class(0); int(c) < NumClasses; c++ {
		tm := TimingOf(c)
		if tm.Issue < 1 || tm.Latency < 1 {
			t.Errorf("class %v has degenerate timing %+v", c, tm)
		}
		if c.String() == "" || c.String() == "class(?)" {
			t.Errorf("class %d unnamed", c)
		}
	}
	// Non-pipelined units: divides occupy their unit for the full latency.
	if FDIVD.Timing().Issue != FDIVD.Timing().Latency {
		t.Error("FP divide must be non-pipelined")
	}
	if FDIVD.Timing().Unit != UnitFPDiv || LW.Timing().Unit != UnitMem {
		t.Error("unit assignment wrong")
	}
}

func TestRegionValues(t *testing.T) {
	if RegionNormal == RegionSync {
		t.Error("regions must differ")
	}
	var in Inst
	if in.Region != RegionNormal {
		t.Error("zero-value instruction must be in the normal region")
	}
}

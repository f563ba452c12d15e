package prog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble("t", 0x1000, 0x100000, 1<<20, `
		# sum 1..10 into r2, store at A
		.alloc A 64 64
		.word  A+4 99
		li   r1, 10
		li   r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bgtz r1, loop
		la   r3, A
		sw   r2, 0(r3)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Init) != 1 || p.Init[0].Val != 99 {
		t.Errorf("init = %+v", p.Init)
	}
	// Branch target resolved to the add.
	var branch *isa.Inst
	for i := range p.Insts {
		if p.Insts[i].Op == isa.BGTZ {
			branch = &p.Insts[i]
		}
	}
	if branch == nil || p.Insts[branch.Target].Op != isa.ADD {
		t.Fatalf("branch target wrong: %+v", branch)
	}
}

func TestAssembleAllForms(t *testing.T) {
	src := `
		.alloc D 128
		.double D 2.5
		.region sync
		tas  r1, 0(r2)
		.region normal
		add r1, r2, r3
		sub r1, r2, r3
		and r1, r2, r3
		or r1, r2, r3
		xor r1, r2, r3
		slt r1, r2, r3
		sltu r1, r2, r3
		mul r1, r2, r3
		div r1, r2, r3
		rem r1, r2, r3
		divu r1, r2, r3
		sllv r1, r2, r3
		srlv r1, r2, r3
		addi r1, r2, 0x10
		andi r1, r2, 7
		ori r1, r2, 7
		xori r1, r2, 7
		slti r1, r2, -3
		sll r1, r2, 3
		srl r1, r2, 3
		sra r1, r2, 3
		lui r1, 0x1234
		move r1, r2
		lw  r1, 4(r2)
		sw  r1, -4(r2)
		fld f1, 8(r2)
		fsd f1, 8(r2)
		fadd f1, f2, f3
		fsub f1, f2, f3
		fmul f1, f2, f3
		fdivs f1, f2, f3
		fdivd f1, f2, f3
		fneg f1, f2
		fabs f1, f2
		fsqrt f1, f2
		fcvt f1, f2
		fcmplt r1, f2, f3
		fcmple r1, f2, f3
		mtc1 f1, r2
		mfc1 r1, f2
		beq r1, r2, end
		bne r1, r2, end
		blez r1, end
		bgtz r1, end
		jal sub1
		j end
	sub1:
		jr r31
	end:
		backoff 16
		switch 16
		nop
		halt
	`
	p, err := Assemble("all", 0x1000, 0x100000, 1<<20, src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Op != isa.TAS || p.Insts[0].Region != isa.RegionSync {
		t.Error("sync region tagging failed")
	}
	if p.Insts[1].Region != isa.RegionNormal {
		t.Error("region restore failed")
	}
	var sawBackoff, sawSwitch bool
	for _, in := range p.Insts {
		if in.Op == isa.BACKOFF {
			sawBackoff = true
		}
		if in.Op == isa.SWITCH {
			sawSwitch = true
		}
	}
	if !sawBackoff || !sawSwitch {
		t.Error("explicit backoff/switch mnemonics not emitted")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"frobnicate r1, r2", "unknown mnemonic"},
		{"add r1, r2", "needs 3 operands"},
		{"add r1, r2, f3", "integer register"},
		{"lw r1, r2", "memory operand"},
		{"addi r1, r2, 99999", "out of 16-bit range"},
		{"la r1, NOPE", "undefined symbol"},
		{".alloc", "usage"},
		{".alloc A 64\n.alloc A 64", "redefined"},
		{".region purple", "unknown region"},
		{".bogus 1", "unknown directive"},
		{"add r1, r2, r99", "bad register"},
		{"j nowhere\nhalt", "undefined label"},
	}
	for _, c := range cases {
		_, err := Assemble("e", 0x1000, 0x100000, 1<<20, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: err = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestAssembleLineNumbersInErrors(t *testing.T) {
	_, err := Assemble("e", 0x1000, 0x100000, 1<<20, "nop\nnop\nbadop r1\n")
	if err == nil || !strings.Contains(err.Error(), "e:3:") {
		t.Errorf("err = %v, want line 3", err)
	}
}

// TestDisassemblyReassembles: the disassembly of every opcode, with its
// branch targets written as labels, assembles back to the instruction the
// Builder linked — the same Op, operand fields, Imm, Target and Region.
func TestDisassemblyReassembles(t *testing.T) {
	b := NewBuilder("rt", 0x1000, 0x100000, 4096)
	b.Label("top")
	b.Add(isa.R1, isa.R2, isa.R3)
	b.Addi(isa.R4, isa.R5, -7)
	b.Sub(isa.R6, isa.R7, isa.R8)
	b.And(isa.R9, isa.R10, isa.R11)
	b.Andi(isa.R12, isa.R13, 255)
	b.Or(isa.R14, isa.R15, isa.R16)
	b.Ori(isa.R17, isa.R18, 0xFFFF)
	b.Xor(isa.R19, isa.R20, isa.R21)
	b.Xori(isa.R22, isa.R23, 9)
	b.Slt(isa.R24, isa.R25, isa.R26)
	b.Slti(isa.R27, isa.R28, -32768)
	b.Sltu(isa.R29, isa.R30, isa.R31)
	b.Lui(isa.R1, 0x8000)
	b.Sll(isa.R2, isa.R3, 31)
	b.Srl(isa.R4, isa.R5, 1)
	b.Sra(isa.R6, isa.R7, 2)
	b.Sllv(isa.R8, isa.R9, isa.R10)
	b.Srlv(isa.R11, isa.R12, isa.R13)
	b.Mul(isa.R14, isa.R15, isa.R16)
	b.Div(isa.R17, isa.R18, isa.R19)
	b.Rem(isa.R20, isa.R21, isa.R22)
	b.Divu(isa.R23, isa.R24, isa.R25)
	b.Lw(isa.R26, isa.R27, -4)
	b.Sw(isa.R28, isa.R29, 32767)
	b.Fld(isa.F1, isa.R2, 8)
	b.Fsd(isa.F3, isa.R4, -16)
	b.SetRegion(isa.RegionSync)
	b.Tas(isa.R5, isa.R6, 0)
	b.Beq(isa.R7, isa.R8, "top")
	b.SetRegion(isa.RegionNormal)
	b.Bne(isa.R9, isa.R0, "end")
	b.Blez(isa.R10, "top")
	b.Bgtz(isa.R11, "end")
	b.J("top")
	b.Jal("end")
	b.Jr(isa.R31)
	b.FAdd(isa.F0, isa.F1, isa.F2)
	b.FSub(isa.F3, isa.F4, isa.F5)
	b.FMul(isa.F6, isa.F7, isa.F8)
	b.FNeg(isa.F9, isa.F10)
	b.FAbs(isa.F11, isa.F12)
	b.FCvt(isa.F13, isa.F14)
	b.FCmpLt(isa.R12, isa.F15, isa.F16)
	b.FCmpLe(isa.R13, isa.F17, isa.F18)
	b.FDivS(isa.F19, isa.F20, isa.F21)
	b.FDivD(isa.F22, isa.F23, isa.F24)
	b.FSqrt(isa.F25, isa.F26)
	b.Mtc1(isa.F27, isa.R14)
	b.Mfc1(isa.R15, isa.F28)
	b.SetYield(YieldSwitch)
	b.Yield(3)
	b.SetYield(YieldBackoff)
	b.Yield(57)
	b.Trap(2)
	b.Label("end")
	b.Eret()
	b.Nop()
	b.Halt()
	want := b.MustBuild()

	targets := map[int]bool{}
	for _, in := range want.Insts {
		if in.Op.Info().Form.Has(isa.OperandTarget) {
			targets[int(in.Target)] = true
		}
	}
	var src strings.Builder
	region := isa.RegionNormal
	for i, in := range want.Insts {
		if targets[i] {
			fmt.Fprintf(&src, "L%d:\n", i)
		}
		if in.Region != region {
			region = in.Region
			if region == isa.RegionSync {
				src.WriteString(".region sync\n")
			} else {
				src.WriteString(".region normal\n")
			}
		}
		src.WriteString(in.Format("L") + "\n")
	}
	got, err := Assemble("rt", 0x1000, 0x100000, 4096, src.String())
	if err != nil {
		t.Fatalf("%v\nsource:\n%s", err, src.String())
	}
	if len(got.Insts) != len(want.Insts) {
		t.Fatalf("%d instructions, want %d", len(got.Insts), len(want.Insts))
	}
	seen := make([]bool, isa.NumOps)
	for i, w := range want.Insts {
		seen[w.Op] = true
		g := got.Insts[i]
		if g.Op != w.Op || g.Rd != w.Rd || g.Rs != w.Rs || g.Rt != w.Rt ||
			g.Imm != w.Imm || g.Target != w.Target || g.Region != w.Region {
			t.Errorf("inst %d %q: got %+v, want %+v", i, w.String(), g, w)
		}
	}
	for op, ok := range seen {
		if !ok {
			t.Errorf("opcode %v has no representative", isa.Op(op))
		}
	}
}

// Assembled text and builder-constructed programs must be identical.
func TestAssembleMatchesBuilder(t *testing.T) {
	asm := MustAssemble("x", 0x2000, 0x200000, 4096, `
		li r1, 5
	top:
		addi r2, r2, 3
		addi r1, r1, -1
		bgtz r1, top
		halt
	`)
	b := NewBuilder("x", 0x2000, 0x200000, 4096)
	b.Li(isa.R1, 5)
	b.Label("top")
	b.Addi(isa.R2, isa.R2, 3)
	b.Addi(isa.R1, isa.R1, -1)
	b.Bgtz(isa.R1, "top")
	b.Halt()
	ref := b.MustBuild()

	if len(asm.Insts) != len(ref.Insts) {
		t.Fatalf("lengths differ: %d vs %d", len(asm.Insts), len(ref.Insts))
	}
	for i := range asm.Insts {
		if asm.Insts[i] != ref.Insts[i] {
			t.Errorf("inst %d: %v vs %v", i, asm.Insts[i], ref.Insts[i])
		}
	}
}

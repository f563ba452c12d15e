package prog

// A small text assembler over Builder, so programs can be written as .s
// files (see cmd/asmrun) as well as through the Go API.
//
// Syntax, one statement per line ('#' or ';' start a comment):
//
//	.alloc  NAME SIZE [ALIGN]     reserve SIZE bytes, define symbol NAME
//	.word   NAME[+OFF] VALUE      initial 32-bit value
//	.double NAME[+OFF] FLOAT      initial float64 value
//	.region sync|normal           tag following instructions
//
//	label:                        define a branch target
//	add   r1, r2, r3              three-register ops
//	addi  r1, r2, -5              immediates (decimal or 0x hex)
//	lw    r2, 8(r3)               loads/stores: disp(base)
//	la    r4, NAME[+OFF]          load a data symbol's address
//	li    r4, 123456              load a 32-bit constant
//	beq   r1, r2, label           branches name labels
//	fadd  f1, f2, f3              FP registers are f0-f31
//	backoff 20                    latency-tolerance instructions
//	halt
//
// An instruction's operands are those of its opcode's form in the opcode
// table (internal/isa), so every line Inst.Format writes with label
// targets assembles back to the same instruction; li, la and move are
// pseudo-instructions.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Assemble parses src and returns the linked program.
func Assemble(name string, codeBase, dataBase, dataSize uint32, src string) (*Program, error) {
	a := &assembler{
		b:       NewBuilder(name, codeBase, dataBase, dataSize),
		symbols: make(map[string]uint32),
	}
	for i, line := range strings.Split(src, "\n") {
		if err := a.line(line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, i+1, err)
		}
	}
	return a.b.Build()
}

// MustAssemble is Assemble that panics on error (for static sources).
func MustAssemble(name string, codeBase, dataBase, dataSize uint32, src string) *Program {
	p, err := Assemble(name, codeBase, dataBase, dataSize, src)
	if err != nil {
		panic(err)
	}
	return p
}

type assembler struct {
	b       *Builder
	symbols map[string]uint32
}

func (a *assembler) line(s string) (err error) {
	defer func() {
		// The Builder panics on misuse (arena overflow, duplicate
		// labels, operand-class errors); surface those as assembly
		// errors with line context instead.
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	if i := strings.IndexAny(s, "#;"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(s)
	}
	if lbl, ok := strings.CutSuffix(s, ":"); ok && !strings.ContainsAny(lbl, " \t") {
		a.b.Label(strings.TrimSpace(lbl))
		return nil
	}
	return a.instruction(s)
}

func (a *assembler) directive(s string) error {
	f := strings.Fields(s)
	switch f[0] {
	case ".alloc":
		if len(f) < 3 || len(f) > 4 {
			return fmt.Errorf("usage: .alloc NAME SIZE [ALIGN]")
		}
		size, err := parseUint(f[2])
		if err != nil {
			return err
		}
		align := uint32(8)
		if len(f) == 4 {
			if align, err = parseUint(f[3]); err != nil {
				return err
			}
		}
		if _, dup := a.symbols[f[1]]; dup {
			return fmt.Errorf("symbol %q redefined", f[1])
		}
		a.symbols[f[1]] = a.b.Alloc(size, align)
		return nil
	case ".word":
		if len(f) != 3 {
			return fmt.Errorf("usage: .word NAME[+OFF] VALUE")
		}
		addr, err := a.symbolAddr(f[1])
		if err != nil {
			return err
		}
		v, err := parseUint(f[2])
		if err != nil {
			return err
		}
		a.b.InitW(addr, v)
		return nil
	case ".double":
		if len(f) != 3 {
			return fmt.Errorf("usage: .double NAME[+OFF] FLOAT")
		}
		addr, err := a.symbolAddr(f[1])
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return err
		}
		a.b.InitF(addr, v)
		return nil
	case ".region":
		if len(f) != 2 {
			return fmt.Errorf("usage: .region sync|normal")
		}
		switch f[1] {
		case "sync":
			a.b.SetRegion(isa.RegionSync)
		case "normal":
			a.b.SetRegion(isa.RegionNormal)
		default:
			return fmt.Errorf("unknown region %q", f[1])
		}
		return nil
	}
	return fmt.Errorf("unknown directive %q", f[0])
}

func (a *assembler) symbolAddr(s string) (uint32, error) {
	name, offStr, hasOff := strings.Cut(s, "+")
	base, ok := a.symbols[name]
	if !ok {
		return 0, fmt.Errorf("undefined symbol %q", name)
	}
	if !hasOff {
		return base, nil
	}
	off, err := parseUint(offStr)
	if err != nil {
		return 0, err
	}
	return base + off, nil
}

func parseUint(s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return uint32(v), nil
}

func parseInt(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		uv, uerr := strconv.ParseUint(s, 0, 32)
		if uerr != nil {
			return 0, fmt.Errorf("bad immediate %q", s)
		}
		return int32(uint32(uv)), nil
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("immediate %q out of 32-bit range", s)
	}
	return int32(v), nil
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if len(s) < 2 {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	switch s[0] {
	case 'r':
		return isa.Reg(n), nil
	case 'f':
		return isa.Reg(n) + 32, nil
	}
	return isa.NoReg, fmt.Errorf("bad register %q", s)
}

// parseMem parses "disp(base)".
func parseMem(s string) (isa.Reg, int32, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return isa.NoReg, 0, fmt.Errorf("bad memory operand %q (want disp(base))", s)
	}
	disp := int32(0)
	if ds := strings.TrimSpace(s[:open]); ds != "" {
		var err error
		if disp, err = parseInt(ds); err != nil {
			return isa.NoReg, 0, err
		}
	}
	base, err := parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return isa.NoReg, 0, err
	}
	return base, disp, nil
}

// instruction assembles one instruction: the operands of its opcode's
// form (isa.Form.Syntax), in order, through the Builder's checked emit
// path. Only the pseudo-instructions are special.
func (a *assembler) instruction(s string) error {
	mnem, rest, _ := strings.Cut(s, " ")
	mnem = strings.ToLower(strings.TrimSpace(mnem))
	var ops []string
	if rest = strings.TrimSpace(rest); rest != "" {
		for _, o := range strings.Split(rest, ",") {
			ops = append(ops, strings.TrimSpace(o))
		}
	}
	if mnem == "li" || mnem == "la" || mnem == "move" {
		return a.pseudo(mnem, ops)
	}
	op, ok := isa.Lookup(mnem)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	syntax := op.Info().Form.Syntax()
	if len(ops) != len(syntax) {
		return fmt.Errorf("%s needs %d operands, got %d", mnem, len(syntax), len(ops))
	}
	in, label := isa.Inst{Op: op}, ""
	for k, o := range syntax {
		var err error
		switch o {
		case isa.OperandImm:
			in.Imm, err = parseInt(ops[k])
		case isa.OperandMem:
			in.Rs, in.Imm, err = parseMem(ops[k])
		case isa.OperandTarget:
			label = ops[k]
		default:
			*in.Field(o), err = parseReg(ops[k])
		}
		if err != nil {
			return err
		}
	}
	a.b.inst(in, label)
	return nil
}

// pseudo assembles the pseudo-instructions: li r, CONST and la r, SYMBOL
// (one or two instructions, Builder.Li) and move rd, rs (an or with r0).
func (a *assembler) pseudo(mnem string, ops []string) error {
	if len(ops) != 2 {
		return fmt.Errorf("%s needs 2 operands, got %d", mnem, len(ops))
	}
	rd, err := parseReg(ops[0])
	if err != nil {
		return err
	}
	switch mnem {
	case "li":
		var v int32
		if v, err = parseInt(ops[1]); err == nil {
			a.b.Li(rd, uint32(v))
		}
	case "la":
		var addr uint32
		if addr, err = a.symbolAddr(ops[1]); err == nil {
			a.b.La(rd, addr)
		}
	default:
		var rs isa.Reg
		if rs, err = parseReg(ops[1]); err == nil {
			a.b.Move(rd, rs)
		}
	}
	return err
}

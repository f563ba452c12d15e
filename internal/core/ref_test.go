package core

// Timing-vs-functional cross-check: an independent reference interpreter
// executes the same programs the timing simulator runs, and the final
// architectural state (registers + memory) must match exactly, for every
// scheme and under randomized cache behaviour. This is the strongest
// correctness property the engine has: no timing decision (miss replay,
// squash, switch, backoff, redirect) may ever change program semantics.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/prog"
)

// refState is the reference interpreter: a deliberately simple, separate
// implementation of the ISA semantics (no shared code with the engine's
// evaluators beyond the isa package's declarative tables).
type refState struct {
	regs [isa.NumRegs]uint64
	mem  map[uint32]uint64 // 8-byte cells
	pc   int
}

func newRefState() *refState { return &refState{mem: make(map[uint32]uint64)} }

func (r *refState) ri(reg isa.Reg) uint32 { return uint32(r.regs[reg]) }

func (r *refState) wi(reg isa.Reg, v uint32) {
	if reg != isa.R0 {
		r.regs[reg] = uint64(v)
	}
}

func (r *refState) rf(reg isa.Reg) float64 { return math.Float64frombits(r.regs[reg]) }

func (r *refState) wf(reg isa.Reg, v float64) { r.regs[reg] = math.Float64bits(v) }

func (r *refState) loadW(addr uint32) uint32 {
	cell := r.mem[addr&^7]
	if addr&4 != 0 {
		return uint32(cell >> 32)
	}
	return uint32(cell)
}

func (r *refState) storeW(addr uint32, v uint32) {
	key := addr &^ 7
	cell := r.mem[key]
	if addr&4 != 0 {
		cell = cell&0xffff_ffff | uint64(v)<<32
	} else {
		cell = cell&^uint64(0xffff_ffff) | uint64(v)
	}
	r.mem[key] = cell
}

// run interprets p until HALT or maxSteps.
func (r *refState) run(t *testing.T, p *prog.Program, maxSteps int) {
	t.Helper()
	for step := 0; step < maxSteps; step++ {
		in := p.Insts[r.pc]
		next := r.pc + 1
		var s, tt uint32
		if in.Rs.Valid() {
			s = r.ri(in.Rs)
		}
		if in.Rt.Valid() {
			tt = r.ri(in.Rt)
		}
		switch in.Op {
		case isa.NOP, isa.BACKOFF, isa.SWITCH:
		case isa.ADD:
			r.wi(in.Rd, s+tt)
		case isa.ADDI:
			r.wi(in.Rd, s+uint32(in.Imm))
		case isa.SUB:
			r.wi(in.Rd, s-tt)
		case isa.AND:
			r.wi(in.Rd, s&tt)
		case isa.ANDI:
			r.wi(in.Rd, s&uint32(in.Imm)&0xFFFF)
		case isa.OR:
			r.wi(in.Rd, s|tt)
		case isa.ORI:
			r.wi(in.Rd, s|uint32(in.Imm)&0xFFFF)
		case isa.XOR:
			r.wi(in.Rd, s^tt)
		case isa.XORI:
			r.wi(in.Rd, s^uint32(in.Imm)&0xFFFF)
		case isa.SLT:
			r.wi(in.Rd, b2u(int32(s) < int32(tt)))
		case isa.SLTI:
			r.wi(in.Rd, b2u(int32(s) < in.Imm))
		case isa.SLTU:
			r.wi(in.Rd, b2u(s < tt))
		case isa.LUI:
			r.wi(in.Rd, uint32(in.Imm)<<16)
		case isa.SLL:
			r.wi(in.Rd, s<<(uint32(in.Imm)&31))
		case isa.SRL:
			r.wi(in.Rd, s>>(uint32(in.Imm)&31))
		case isa.SRA:
			r.wi(in.Rd, uint32(int32(s)>>(uint32(in.Imm)&31)))
		case isa.SLLV:
			r.wi(in.Rd, s<<(tt&31))
		case isa.SRLV:
			r.wi(in.Rd, s>>(tt&31))
		case isa.MUL:
			r.wi(in.Rd, s*tt)
		case isa.DIV:
			if tt == 0 {
				r.wi(in.Rd, 0)
			} else {
				r.wi(in.Rd, uint32(int32(s)/int32(tt)))
			}
		case isa.REM:
			if tt == 0 {
				r.wi(in.Rd, 0)
			} else {
				r.wi(in.Rd, uint32(int32(s)%int32(tt)))
			}
		case isa.DIVU:
			if tt == 0 {
				r.wi(in.Rd, 0)
			} else {
				r.wi(in.Rd, s/tt)
			}
		case isa.LW:
			r.wi(in.Rd, r.loadW(s+uint32(in.Imm)))
		case isa.SW:
			r.storeW(s+uint32(in.Imm), tt)
		case isa.FLD:
			r.regs[in.Rd] = r.mem[(s+uint32(in.Imm))&^7]
		case isa.FSD:
			r.mem[(s+uint32(in.Imm))&^7] = r.regs[in.Rt]
		case isa.TAS:
			addr := s + uint32(in.Imm)
			r.wi(in.Rd, r.loadW(addr))
			r.storeW(addr, 1)
		case isa.BEQ:
			if s == tt {
				next = int(in.Target)
			}
		case isa.BNE:
			if s != tt {
				next = int(in.Target)
			}
		case isa.BLEZ:
			if int32(s) <= 0 {
				next = int(in.Target)
			}
		case isa.BGTZ:
			if int32(s) > 0 {
				next = int(in.Target)
			}
		case isa.J:
			next = int(in.Target)
		case isa.JAL:
			r.wi(in.Rd, uint32(r.pc+1))
			next = int(in.Target)
		case isa.JR:
			next = int(s)
		case isa.FADD:
			r.wf(in.Rd, r.rf(in.Rs)+r.rf(in.Rt))
		case isa.FSUB:
			r.wf(in.Rd, r.rf(in.Rs)-r.rf(in.Rt))
		case isa.FMUL:
			r.wf(in.Rd, r.rf(in.Rs)*r.rf(in.Rt))
		case isa.FNEG:
			r.wf(in.Rd, -r.rf(in.Rs))
		case isa.FABS:
			r.wf(in.Rd, math.Abs(r.rf(in.Rs)))
		case isa.FCVTIW:
			r.wf(in.Rd, math.Trunc(r.rf(in.Rs)))
		case isa.FCMPLT:
			r.wi(in.Rd, b2u(r.rf(in.Rs) < r.rf(in.Rt)))
		case isa.FCMPLE:
			r.wi(in.Rd, b2u(r.rf(in.Rs) <= r.rf(in.Rt)))
		case isa.FDIVS, isa.FDIVD:
			r.wf(in.Rd, r.rf(in.Rs)/r.rf(in.Rt))
		case isa.FSQRT:
			r.wf(in.Rd, math.Sqrt(r.rf(in.Rs)))
		case isa.MTC1:
			r.wf(in.Rd, float64(int32(s)))
		case isa.MFC1:
			r.wi(in.Rd, uint32(int32(r.rf(in.Rs))))
		case isa.HALT:
			return // final state reached
		default:
			t.Fatalf("reference interpreter: unhandled op %v", in.Op)
		}
		r.pc = next
	}
	t.Fatal("reference interpreter: did not halt")
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// chaosMem is a timing memory with randomized hit/miss behaviour and
// latencies: it exercises every miss path of the engine without affecting
// functional semantics. Lines eventually become cached so replays hit.
type chaosMem struct {
	rng     *rand.Rand
	pending map[uint32]int64
	pIMiss  int // percent of I-fetch misses
	pDMiss  int // percent of first-touch data misses
}

func newChaosMem(seed int64, pI, pD int) *chaosMem {
	return &chaosMem{rng: rand.New(rand.NewSource(seed)), pending: make(map[uint32]int64), pIMiss: pI, pDMiss: pD}
}

func (c *chaosMem) FetchInst(addr uint32, now int64) (int64, bool) {
	if c.rng.Intn(100) < c.pIMiss {
		return now + int64(3+c.rng.Intn(40)), true
	}
	return now, false
}

func (c *chaosMem) AccessData(addr uint32, write bool, pc uint32, now int64) memsys.DataResult {
	line := addr >> 5
	if fill, ok := c.pending[line]; ok {
		if now >= fill {
			// Randomly evict a cached line to force an occasional re-miss.
			if c.rng.Intn(100) < 3 {
				delete(c.pending, line)
			} else {
				return memsys.DataResult{Hit: true, ReadyAt: now + 3, Class: memsys.HitL1}
			}
		} else {
			return memsys.DataResult{FillAt: fill, Class: memsys.MSHRFull}
		}
	}
	if c.rng.Intn(100) < c.pDMiss {
		fill := now + int64(5+c.rng.Intn(60))
		c.pending[line] = fill
		return memsys.DataResult{FillAt: fill, Class: memsys.Memory}
	}
	c.pending[line] = now
	return memsys.DataResult{Hit: true, ReadyAt: now + 3, Class: memsys.HitL1}
}

// randomProgram builds a halting program with random arithmetic, memory
// traffic within a private arena, data-dependent branches, calls to a
// leaf subroutine, yields and short loops. Over a set of trials it emits
// every opcode the reference interprets (TestTimingMatchesReference
// checks that it does).
func randomProgram(rng *rand.Rand, name string, codeBase, dataBase uint32) *prog.Program {
	b := prog.NewBuilder(name, codeBase, dataBase, 1<<20)
	arena := b.Alloc(4096, 64)
	for i := 0; i < 16; i++ {
		b.InitW(arena+uint32(4*i), rng.Uint32())
		b.InitF(arena+2048+uint32(8*i), 1+rng.Float64()*16)
	}
	ir := func() isa.Reg { return isa.R8 + isa.Reg(rng.Intn(10)) } // R8..R17
	fr := func() isa.Reg { return isa.F8 + isa.Reg(rng.Intn(8)) }
	b.La(isa.R20, arena)                 // word arena
	b.Addi(isa.R21, isa.R20, 2048)       // double arena
	b.Li(isa.R18, uint32(2+rng.Intn(4))) // outer loop counter
	// The leaf subroutine the body calls (JAL/JR through R31), stepped
	// over on entry.
	b.J("top")
	b.Label("sub")
	b.Xor(ir(), ir(), ir())
	b.Jr(isa.R31)
	b.Label("top")
	n := 10 + rng.Intn(40)
	for i := 0; i < n; i++ {
		switch rng.Intn(45) {
		case 0:
			b.Add(ir(), ir(), ir())
		case 1:
			b.Sub(ir(), ir(), ir())
		case 2:
			b.Xor(ir(), ir(), ir())
		case 3:
			b.Addi(ir(), ir(), int32(rng.Intn(2000)-1000))
		case 4:
			b.Sll(ir(), ir(), int32(rng.Intn(8)))
		case 5:
			b.Mul(ir(), ir(), ir())
		case 6:
			b.Lw(ir(), isa.R20, int32(4*rng.Intn(64)))
		case 7:
			b.Sw(ir(), isa.R20, int32(4*rng.Intn(64)))
		case 8:
			b.Fld(fr(), isa.R21, int32(8*rng.Intn(16)))
		case 9:
			b.FAdd(fr(), fr(), fr())
		case 10:
			b.FMul(fr(), fr(), fr())
		case 11:
			// Data-dependent forward skip.
			lbl := labelName(rng)
			b.Andi(isa.R19, ir(), 1)
			b.Beq(isa.R19, isa.R0, lbl)
			b.Addi(ir(), ir(), 1)
			b.Label(lbl)
		case 12:
			b.And(ir(), ir(), ir())
		case 13:
			b.Or(ir(), ir(), ir())
		case 14:
			b.Slt(ir(), ir(), ir())
		case 15:
			b.Sltu(ir(), ir(), ir())
		case 16:
			b.Sra(ir(), ir(), int32(rng.Intn(8)))
		case 17:
			b.Srl(ir(), ir(), int32(rng.Intn(8)))
		case 18:
			b.Sllv(ir(), ir(), ir())
		case 19:
			b.Div(ir(), ir(), ir())
		case 20:
			b.Rem(ir(), ir(), ir())
		case 21:
			b.Divu(ir(), ir(), ir())
		case 22:
			b.FSub(fr(), fr(), fr())
		case 23:
			b.FNeg(fr(), fr())
		case 24:
			b.FAbs(fr(), fr())
		case 25:
			b.FCmpLe(ir(), fr(), fr())
		case 26:
			b.Mtc1(fr(), ir())
		case 27:
			// FDIV on |values| kept > 0 by FAbs+1: NaN/Inf equality in
			// the comparison would still match bit-for-bit, but keep the
			// stream numerically tame.
			b.FDivS(fr(), fr(), fr())
		case 28:
			b.Lui(ir(), int32(rng.Intn(1<<15)))
		case 29:
			b.Andi(ir(), ir(), int32(rng.Intn(1<<15)))
		case 30:
			b.Ori(ir(), ir(), int32(rng.Intn(1<<15)))
		case 31:
			b.Xori(ir(), ir(), int32(rng.Intn(1<<15)))
		case 32:
			b.Slti(ir(), ir(), int32(rng.Intn(2000)-1000))
		case 33:
			b.Srlv(ir(), ir(), ir())
		case 34:
			b.Tas(ir(), isa.R20, int32(4*rng.Intn(64)))
		case 35:
			lbl := labelName(rng)
			b.Bne(ir(), ir(), lbl)
			b.Addi(ir(), ir(), 1)
			b.Label(lbl)
		case 36:
			lbl := labelName(rng)
			b.Blez(ir(), lbl)
			b.Addi(ir(), ir(), 1)
			b.Label(lbl)
		case 37:
			b.Jal("sub")
		case 38:
			b.FCvt(fr(), fr())
		case 39:
			b.FCmpLt(ir(), fr(), fr())
		case 40:
			b.FDivD(fr(), fr(), fr())
		case 41:
			b.FSqrt(fr(), fr())
		case 42:
			b.Nop()
		case 43:
			b.SetYield(prog.YieldBackoff)
			b.Yield(int32(1 + rng.Intn(20)))
		case 44:
			b.SetYield(prog.YieldSwitch)
			b.Yield(int32(1 + rng.Intn(20)))
		}
	}
	b.Fsd(isa.F8+isa.Reg(rng.Intn(8)), isa.R21, int32(8*rng.Intn(16)))
	b.Mfc1(isa.R19, isa.F8+isa.Reg(rng.Intn(8)))
	b.Sw(isa.R19, isa.R20, 4)
	b.Addi(isa.R18, isa.R18, -1)
	b.Bgtz(isa.R18, "top")
	b.Halt()
	return b.MustBuild()
}

var labelSeq int

func labelName(rng *rand.Rand) string {
	labelSeq++
	return "skip" + string(rune('a'+labelSeq%26)) + string(rune('a'+(labelSeq/26)%26)) + string(rune('a'+(labelSeq/676)%26))
}

// TestTimingMatchesReference cross-checks every scheme against the
// reference interpreter on randomized programs over chaotic memory.
func TestTimingMatchesReference(t *testing.T) {
	schemes := []struct {
		s Scheme
		n int
	}{
		{Single, 1}, {Blocked, 2}, {Blocked, 4}, {BlockedFast, 2},
		{Interleaved, 2}, {Interleaved, 4}, {FineGrained, 4},
	}
	var emitted [isa.NumOps]bool
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		nProgs := 1 + rng.Intn(4)
		var progs []*prog.Program
		for i := 0; i < nProgs; i++ {
			p := randomProgram(rng, "rnd", uint32(0x1000+i*0x40000), uint32(0x4000_0000+i*0x100000))
			for _, in := range p.Insts {
				emitted[in.Op] = true
			}
			progs = append(progs, p)
		}
		// Reference run of every program.
		refs := make([]*refState, len(progs))
		for i, p := range progs {
			r := newRefState()
			for _, d := range p.Init {
				if d.Double {
					r.mem[d.Addr&^7] = d.Val
				} else {
					r.storeW(d.Addr, uint32(d.Val))
				}
			}
			r.run(t, p, 1_000_000)
			refs[i] = r
		}
		// check compares thread th of program i, and the memory it ran
		// on, with the reference run of that program.
		check := func(row string, i int, th *Thread, fm *mem.Memory) {
			t.Helper()
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if th.Regs[r] != refs[i].regs[r] {
					t.Fatalf("trial %d %s prog %d: %v = %#x, reference %#x",
						trial, row, i, r, th.Regs[r], refs[i].regs[r])
				}
			}
			for addr, want := range refs[i].mem {
				if got := fm.LoadD(addr); got != want {
					t.Fatalf("trial %d %s prog %d: mem[%#x] = %#x, reference %#x",
						trial, row, i, addr, got, want)
				}
			}
		}

		for _, sc := range schemes {
			if sc.n > len(progs) {
				continue
			}
			fm := mem.New()
			cm := newChaosMem(int64(trial*100+int(sc.s)), 10, 40)
			p := MustNewProcessor(DefaultConfig(sc.s, sc.n), cm, fm)
			var ths []*Thread
			for i := 0; i < sc.n; i++ {
				progs[i].LoadInit(fm)
				th := NewThread("t", progs[i])
				ths = append(ths, th)
				p.BindThread(i, th)
			}
			if _, done := p.RunUntilHalted(3_000_000); !done {
				t.Fatalf("trial %d %v/%d: did not halt", trial, sc.s, sc.n)
			}
			for i, th := range ths {
				check(fmt.Sprintf("%v/%d", sc.s, sc.n), i, th, fm)
			}
		}

		// The functional machine: each program alone, run to HALT by
		// Thread.Exec with no timing model.
		for i, p := range progs {
			fm := mem.New()
			p.LoadInit(fm)
			th := NewThread("t", p)
			for steps := 0; !th.Halted; steps++ {
				if steps == 1_000_000 {
					t.Fatalf("trial %d exec prog %d: did not halt", trial, i)
				}
				if _, err := th.Exec(fm); err != nil {
					t.Fatalf("trial %d exec prog %d: %v", trial, i, err)
				}
			}
			check("exec", i, th, fm)
		}
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if op != isa.TRAP && op != isa.ERET && !emitted[op] {
			t.Errorf("no trial emitted %v: the reference and the engines never compare it", op)
		}
	}
}

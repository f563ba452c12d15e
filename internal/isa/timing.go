package isa

// Class groups opcodes by their pipeline timing and functional-unit usage
// (paper Table 3).
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassShift
	ClassIntMul
	ClassIntDiv
	ClassLoad
	ClassStore
	ClassAtomic
	ClassBranch
	ClassFPAdd // FP add/sub/convert/multiply: fully pipelined, latency 5
	ClassFPDivS
	ClassFPDivD
	ClassMove
	ClassSwitch
	ClassBackoff
	ClassHalt

	numClasses
)

// NumClasses is the number of instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	ClassNop: "nop", ClassIntALU: "int-alu", ClassShift: "shift",
	ClassIntMul: "int-mul", ClassIntDiv: "int-div",
	ClassLoad: "load", ClassStore: "store", ClassAtomic: "atomic",
	ClassBranch: "branch", ClassFPAdd: "fp-add", ClassFPDivS: "fp-div-s",
	ClassFPDivD: "fp-div-d", ClassMove: "move", ClassSwitch: "switch",
	ClassBackoff: "backoff", ClassHalt: "halt",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(?)"
}

// Unit names a functional unit. Units with Issue > 1 in Timing are
// non-pipelined: a second operation of the same unit stalls until the unit
// frees.
type Unit uint8

// Functional units.
const (
	UnitNone   Unit = iota
	UnitIntALU      // ALU, shifts, branches: fully pipelined
	UnitIntMulDiv
	UnitFPAdd // pipelined FP add/mul/convert
	UnitFPDiv // non-pipelined divider
	UnitMem   // data-cache port

	numUnits
)

// NumUnits is the number of functional units.
const NumUnits = int(numUnits)

// Timing gives an instruction class's issue occupancy and result latency
// (paper Table 3). Issue is the number of cycles the functional unit is
// busy (1 = fully pipelined). Latency is the earliest number of cycles
// after issue at which a dependent instruction can issue without stalling:
// ALU results forward with latency 1, loads have two delay slots (latency
// 3), FP add-class results have latency 5, and the divides are fully
// exposed.
//
// The integer multiply/divide rows of Table 3 are garbled in the source
// text; the values here are R4000-class reconstructions (multiply 4/12,
// divide 35/35) and are documented in DESIGN.md.
type Timing struct {
	Issue   int
	Latency int
	Unit    Unit
}

var timings = [NumClasses]Timing{
	ClassNop:     {1, 1, UnitNone},
	ClassIntALU:  {1, 1, UnitIntALU},
	ClassShift:   {1, 2, UnitIntALU},
	ClassIntMul:  {4, 12, UnitIntMulDiv},
	ClassIntDiv:  {35, 35, UnitIntMulDiv},
	ClassLoad:    {1, 3, UnitMem},
	ClassStore:   {1, 1, UnitMem},
	ClassAtomic:  {1, 3, UnitMem},
	ClassBranch:  {1, 1, UnitIntALU},
	ClassFPAdd:   {1, 5, UnitFPAdd},
	ClassFPDivS:  {31, 31, UnitFPDiv},
	ClassFPDivD:  {61, 61, UnitFPDiv},
	ClassMove:    {1, 2, UnitIntALU},
	ClassSwitch:  {1, 1, UnitNone},
	ClassBackoff: {1, 1, UnitNone},
	ClassHalt:    {1, 1, UnitNone},
}

// TimingOf returns the issue/latency/unit timing for a class.
func TimingOf(c Class) Timing { return timings[c] }

// Timing returns the issue/latency/unit timing of the opcode.
func (o Op) Timing() Timing { return timings[ops[o].Class] }

// Class returns the timing class of the opcode (its row of the opcode
// table).
func (o Op) Class() Class { return ops[o].Class }

// LongLatencyThreshold separates "short" pipeline-dependency stalls from
// "long" ones in the multiprocessor breakdowns: the paper labels stalls of
// four or fewer cycles (the maximum FP add-class result hazard) short.
const LongLatencyThreshold = 4

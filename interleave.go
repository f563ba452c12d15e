// Package interleave is a cycle-level simulation library for
// multiple-context (hardware-multithreaded) processors, reproducing
// Laudon, Gupta & Horowitz, "Interleaving: A Multithreading Technique
// Targeting Multiprocessors and Workstations" (ASPLOS 1994).
//
// The library models a MIPS-II-like in-order pipeline with four
// context-multiplexing schemes — the single-context baseline, the blocked
// scheme (switch on cache miss, full pipeline flush), the paper's proposed
// interleaved scheme (cycle-by-cycle round-robin with selective squash),
// and the HEP-style fine-grained scheme — over two memory systems: a
// workstation cache hierarchy (split 64 KB L1s, unified 1 MB L2,
// interleaved memory banks, data TLB) and a DASH-like directory-coherent
// multiprocessor.
//
// # Quick start
//
//	b := interleave.NewProgram("count", 0x1000, 0x100000, 1<<20)
//	b.Li(interleave.R1, 1000)
//	b.Label("loop")
//	b.Addi(interleave.R1, interleave.R1, -1)
//	b.Bgtz(interleave.R1, "loop")
//	b.Halt()
//	p := b.MustBuild()
//
//	m, _ := interleave.NewMachine(interleave.DefaultConfig(interleave.Interleaved, 4))
//	m.Load(0, p)
//	cycles, _ := m.RunUntilHalted(1 << 20)
//
// Higher-level entry points run the paper's full experiments: see
// RunTable7, RunTable10, and the cmd/ tools.
package interleave

import (
	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mp"
	"repro/internal/prog"
	"repro/internal/splash"
	"repro/internal/workstation"
)

// Scheme selects the context-multiplexing policy.
type Scheme = core.Scheme

// Context-multiplexing schemes.
const (
	// Single is the single-context baseline processor.
	Single = core.Single
	// Blocked switches contexts on cache misses with a full pipeline
	// flush (APRIL / Weber-Gupta style).
	Blocked = core.Blocked
	// BlockedFast is the blocked scheme with replicated pipeline
	// registers (one-cycle switch).
	BlockedFast = core.BlockedFast
	// Interleaved is the paper's proposal: cycle-by-cycle round-robin
	// issue with selective squash.
	Interleaved = core.Interleaved
	// FineGrained is the HEP-style baseline: no data cache, one
	// instruction per context in the pipeline.
	FineGrained = core.FineGrained
)

// Core processor types.
type (
	// Config parameterizes a processor core (scheme, contexts, pipeline
	// depth, switch costs, BTB size).
	Config = core.Config
	// Stats is the per-processor issue-slot accounting.
	Stats = core.Stats
	// Breakdown maps slot classes onto the paper's reporting categories.
	Breakdown = core.Breakdown
	// Thread is a software thread (architectural state + program).
	Thread = core.Thread
)

// DefaultConfig returns the paper's processor configuration for the given
// scheme and context count.
func DefaultConfig(s Scheme, contexts int) Config { return core.DefaultConfig(s, contexts) }

// Program construction.
type (
	// Builder assembles programs in the simulated ISA.
	Builder = prog.Builder
	// Program is a linked executable program.
	Program = prog.Program
	// YieldMode selects the latency-tolerance instruction emitted at
	// yield points (none / backoff / switch).
	YieldMode = prog.YieldMode
)

// Yield modes.
const (
	YieldNone    = prog.YieldNone
	YieldBackoff = prog.YieldBackoff
	YieldSwitch  = prog.YieldSwitch
)

// NewProgram returns a builder for a program with code at codeBase and a
// data arena of dataSize bytes at dataBase.
func NewProgram(name string, codeBase, dataBase, dataSize uint32) *Builder {
	return prog.NewBuilder(name, codeBase, dataBase, dataSize)
}

// Assemble parses assembly text (see internal/prog's assembler syntax and
// examples/asm) into a linked program.
func Assemble(name string, codeBase, dataBase, dataSize uint32, src string) (*Program, error) {
	return prog.Assemble(name, codeBase, dataBase, dataSize, src)
}

// NewThread wraps a program in a runnable thread.
func NewThread(name string, p *Program) *Thread { return core.NewThread(name, p) }

// CacheParams configures the workstation memory hierarchy (paper Tables
// 1-2).
type CacheParams = cache.Params

// DefaultCacheParams returns the paper's workstation hierarchy parameters.
func DefaultCacheParams() CacheParams { return cache.DefaultParams() }

// Machine is a single multiple-context processor over the workstation
// cache hierarchy — the simplest way to run programs. Load binds a
// program to a context, Run and RunUntilHalted advance it, Stats reads
// its issue-slot accounting.
type Machine = workstation.Machine

// NewMachine builds a machine with the paper's default hierarchy.
func NewMachine(cfg Config) (*Machine, error) {
	return NewMachineWithCaches(cfg, cache.DefaultParams())
}

// NewMachineWithCaches builds a machine with an explicit hierarchy
// configuration.
func NewMachineWithCaches(cfg Config, cp CacheParams) (*Machine, error) {
	return workstation.NewMachine(cfg, cp)
}

// Workstation multiprogramming (paper §4-5.1).
type (
	// Kernel is a buildable uniprocessor application.
	Kernel = apps.Kernel
	// KernelOptions parameterize a kernel build.
	KernelOptions = apps.Options
	// WorkstationConfig parameterizes a multiprogrammed workstation run.
	WorkstationConfig = workstation.Config
	// WorkstationResult is the outcome of a workstation run.
	WorkstationResult = workstation.Result
)

// Kernels returns the twelve SPEC89-like uniprocessor kernels by name.
func Kernels() map[string]Kernel { return apps.Registry() }

// DefaultWorkstationConfig returns the paper's workstation setup.
func DefaultWorkstationConfig(s Scheme, contexts int) WorkstationConfig {
	return workstation.DefaultConfig(s, contexts)
}

// RunWorkstation simulates kernels as a multiprogrammed workload.
func RunWorkstation(kernels []Kernel, cfg WorkstationConfig) (*WorkstationResult, error) {
	return workstation.Run(kernels, cfg)
}

// Multiprocessor (paper §5.2).
type (
	// App is a buildable SPMD parallel application.
	App = splash.App
	// AppOptions parameterize an app build.
	AppOptions = splash.Options
	// MPConfig parameterizes a multiprocessor run.
	MPConfig = mp.Config
	// MPResult is the outcome of a multiprocessor run.
	MPResult = mp.Result
)

// SPMD identity registers set by RunMultiprocessor in every thread.
const (
	// TidReg receives the thread id.
	TidReg = mp.TidReg
	// NThreadsReg receives the thread count.
	NThreadsReg = mp.NThreadsReg
)

// Apps returns the seven SPLASH-like parallel applications by name.
func Apps() map[string]App { return splash.Registry() }

// DefaultMPConfig returns the paper's 8-node multiprocessor setup.
func DefaultMPConfig(s Scheme, contexts int) MPConfig { return mp.DefaultConfig(s, contexts) }

// RunMultiprocessor executes program p as an SPMD application with
// Processors×Contexts threads over the directory-coherent fabric.
func RunMultiprocessor(p *Program, cfg MPConfig) (*MPResult, error) { return mp.Run(p, cfg) }

// Experiment drivers: each regenerates a table or figure of the paper.
// Both evaluation configs carry a Parallelism field: the grid's
// simulation cells fan out across that many workers (0 = all CPUs,
// 1 = serial) with byte-identical results at every setting.
type (
	// UniConfig parameterizes the workstation evaluation (Table 7,
	// Figures 6-7).
	UniConfig = experiments.UniConfig
	// UniResult holds the workstation evaluation results.
	UniResult = experiments.UniResult
	// MPEvalConfig parameterizes the multiprocessor evaluation
	// (Table 10, Figures 8-9).
	MPEvalConfig = experiments.MPConfig
	// MPEvalResult holds the multiprocessor evaluation results.
	MPEvalResult = experiments.MPResult
)

// RunTable7 runs the full workstation evaluation (Table 7, Figures 6-7).
func RunTable7(cfg UniConfig) (*UniResult, error) { return experiments.RunUniprocessor(cfg) }

// RunTable10 runs the full multiprocessor evaluation (Table 10, Figures
// 8-9).
func RunTable10(cfg MPEvalConfig) (*MPEvalResult, error) {
	return experiments.RunMultiprocessor(cfg)
}

// DefaultUniConfig returns the paper-scale workstation evaluation setup.
func DefaultUniConfig() UniConfig { return experiments.DefaultUniConfig() }

// DefaultMPEvalConfig returns the paper-scale multiprocessor evaluation
// setup.
func DefaultMPEvalConfig() MPEvalConfig { return experiments.DefaultMPConfig() }

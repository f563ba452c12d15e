package prog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Shared programs. A linked Program is immutable: core.NewThread aliases
// Insts, LoadInit copies the data image into each machine's own memory,
// and Decode runs once under decodeOnce. A grid therefore needs each
// program linked once per process, not once per cell — neither the cell
// seed nor the context count enters a build. Shared is that one memo, for
// both application suites (apps.Kernel.Program, splash.App.Program).
//
// Whoever receives a shared program must not write to it. Code that
// rewrites instructions after linking (the fuzz generator's broken-TAS
// mutation, tests) builds its own program with a Builder or the suites'
// raw Build constructors.

// sharedCap bounds the memo to what grids have in flight, not to everything
// a process ever linked. A workstation grid's cells use their mix's dozen
// programs (4 kernels × 3 yield modes) back to back, so -j 8 spans three
// mixes, 36 programs; a multiprocessor grid spans three apps' 21; the
// service benchmark's four jobs come to 41. The full evaluation's 84 + 49
// programs (5–790 KB each, 17 MB, which the collector's pacing doubles in
// resident memory) do not all stay: a full memo is emptied, and the grid
// relinks the mixes still in flight once.
const sharedCap = 48

type sharedKey struct {
	name string
	opts any
}

type sharedEntry struct {
	once sync.Once
	p    *Program
}

var shared struct {
	mu           sync.Mutex
	m            map[sharedKey]*sharedEntry
	builds, hits int64
}

// Shared returns the process-wide program for (name, opts), calling
// build(opts) the first time the pair is asked for; concurrent callers of
// one pair wait for that single build and receive the same pointer. The
// pair must determine what build returns. When the memo is full it is
// emptied: programs already handed out stay valid, and the next request
// for a dropped pair links it again, to the same bytes.
func Shared[O comparable](name string, opts O, build func(O) *Program) *Program {
	k := sharedKey{name, opts}
	shared.mu.Lock()
	e := shared.m[k]
	if e != nil {
		shared.hits++
	} else {
		if shared.m == nil || len(shared.m) >= sharedCap {
			shared.m = make(map[sharedKey]*sharedEntry)
		}
		e = new(sharedEntry)
		shared.m[k] = e
		shared.builds++
	}
	shared.mu.Unlock()
	e.once.Do(func() { e.p = build(opts) })
	if e.p == nil {
		// build panicked in the goroutine that ran it (kernels panic on
		// operand misuse); fail as loudly here.
		panic(fmt.Sprintf("prog: shared build of %s failed", name))
	}
	return e.p
}

// SharedStats reports how many Shared calls linked a program, how many
// were served an existing one, and how many programs the memo holds. Test
// hook.
func SharedStats() (builds, hits int64, held int) {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	return shared.builds, shared.hits, len(shared.m)
}

// ResetShared empties the memo and zeroes its counters. Test hook.
func ResetShared() {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	shared.m, shared.builds, shared.hits = nil, 0, 0
}

// Fingerprint hashes everything a run can observe of the program — Base,
// every instruction including its decoded fields, the data image and the
// label table. Tests take it before and after a run to hold the
// simulator to the immutability the memo relies on.
func (p *Program) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(p.Base))
	put(uint64(len(p.Insts)))
	for i := range p.Insts {
		in := &p.Insts[i]
		put(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Rs)<<16 | uint64(in.Rt)<<24 | uint64(in.Region)<<32 |
			uint64(in.SrcA)<<40 | uint64(in.SrcB)<<48 | uint64(in.Dst)<<56)
		put(uint64(uint32(in.Imm)) | uint64(uint32(in.Target))<<32)
		put(uint64(in.TM.Unit) | uint64(in.TM.Issue)<<8 | uint64(in.TM.Latency)<<32)
	}
	put(uint64(len(p.Init)))
	for _, d := range p.Init {
		put(uint64(d.Addr))
		put(d.Val)
		if d.Double {
			put(1)
		} else {
			put(0)
		}
	}
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		put(uint64(p.Labels[name]))
	}
	return h.Sum64()
}

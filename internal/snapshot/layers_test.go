package snapshot_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/snapshot"
)

// This file tests the layers' state walks from outside: that every
// field of every checkpointed struct is either visited or knowingly
// left out (TestStateWalkCoversEveryField), and that no payload, however
// hostile, makes a restore panic, spin or fail untyped (FuzzRestore).
// It lives here rather than beside each layer because both tests are
// one table over all of them.

// uni is a small uniprocessor machine: two interleaved contexts over a
// hierarchy of the shape internal/cache's checkpoint golden was
// captured from, so that golden's payload restores into it.
type uni struct {
	threads []*core.Thread
	proc    *core.Processor
	h       *cache.Hierarchy
	fm      *mem.Memory
}

func newUni(t testing.TB) *uni {
	t.Helper()
	b := prog.NewBuilder("walk", 0x1000, 0x10_0000, 1<<20)
	src := b.Alloc(64<<10, 64)
	dst := b.Alloc(4096, 64)
	b.La(isa.R1, src)
	b.Sll(isa.R11, isa.R4, 15) // tid * 32 KiB
	b.Add(isa.R1, isa.R1, isa.R11)
	b.La(isa.R10, dst)
	b.Li(isa.R5, 400)
	b.Label("loop")
	b.Lw(isa.R6, isa.R1, 0)
	b.Add(isa.R7, isa.R7, isa.R6)
	b.Sw(isa.R7, isa.R10, 0)
	b.Addi(isa.R1, isa.R1, 68)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bgtz(isa.R5, "loop")
	b.Halt()
	pr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	p := cache.DefaultParams()
	p.L1ISize, p.L1DSize, p.L2Size = 1<<10, 1<<10, 4<<10
	p.TLBEntries = 4
	p.Prefetch = cache.PrefetchNextLine
	u := &uni{h: cache.MustNewHierarchy(p), fm: mem.New()}
	pr.LoadInit(u.fm)
	cfg := core.DefaultConfig(core.Interleaved, 2)
	cfg.BTBEntries = 16
	u.proc = core.MustNewProcessor(cfg, u.h, u.fm)
	for i := 0; i < 2; i++ {
		th := core.NewThread([]string{"t0", "t1"}[i], pr)
		th.SetIntReg(isa.R4, uint32(i))
		u.proc.BindThread(i, th)
		u.threads = append(u.threads, th)
	}
	return u
}

// multi is a small coherent memory system, driven directly through its
// nodes' access ports.
type multi struct {
	fab *coherence.Fabric
	fm  *mem.Memory
}

func newMulti(t testing.TB) *multi {
	t.Helper()
	p := coherence.DefaultParams()
	p.CacheSize = 1 << 10
	p.Chaos = guard.NewChaos(9, 3)
	fab, err := coherence.NewFabric(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &multi{fab: fab, fm: mem.New()}
}

// warm runs both machines far enough that every kind of state is
// populated, and stops with misses in flight.
func (u *uni) warm() { u.proc.Run(2500) }

func (m *multi) warm() {
	ls := uint32(m.fab.P.LineSize)
	now := int64(0)
	for i := uint32(0); i < 200; i++ {
		for nd := 0; nd < m.fab.Nodes(); nd++ {
			a := 0x4000_0000 + (i*7+uint32(nd))%96*ls
			m.fab.Node(nd).AccessData(a, i%3 == 0, 0x1000, now)
			m.fm.StoreW(a, i)
		}
		now += 40
	}
	// Two fresh lines, not waited for: their fills stay pending.
	m.fab.Node(0).AccessData(0x4800_0000, false, 0x1000, now)
	m.fab.Node(1).AccessData(0x4800_0000+ls, true, 0x1000, now)
}

type restorer interface{ RestoreState(*snapshot.Reader) }

// layer is one exported restore entry point and a payload it accepts.
type layer struct {
	name    string
	fresh   func(testing.TB) restorer
	payload func(testing.TB) []byte
}

// seeds returns the payloads l must accept: its own, from a warmed
// machine, and for the hierarchy internal/cache's checkpoint golden.
func (l layer) seeds(t testing.TB) [][]byte {
	t.Helper()
	seeds := [][]byte{l.payload(t)}
	if l.name == "Hierarchy" {
		golden, err := os.ReadFile(filepath.Join("..", "cache", "testdata", "hierarchy_savestate.golden"))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, golden)
	}
	return seeds
}

func saved(save func(*snapshot.Writer)) []byte {
	w := snapshot.NewWriter()
	save(w)
	return w.Bytes()
}

var layers = []layer{
	{"Thread",
		func(t testing.TB) restorer { return newUni(t).threads[0] },
		func(t testing.TB) []byte { u := newUni(t); u.warm(); return saved(u.threads[0].SaveState) }},
	{"Processor",
		func(t testing.TB) restorer { return newUni(t).proc },
		func(t testing.TB) []byte { u := newUni(t); u.warm(); return saved(u.proc.SaveState) }},
	{"Hierarchy",
		func(t testing.TB) restorer { return newUni(t).h },
		func(t testing.TB) []byte { u := newUni(t); u.warm(); return saved(u.h.SaveState) }},
	{"Fabric",
		func(t testing.TB) restorer { return newMulti(t).fab },
		func(t testing.TB) []byte { m := newMulti(t); m.warm(); return saved(m.fab.SaveState) }},
	{"Memory",
		func(t testing.TB) restorer { return mem.New() },
		func(t testing.TB) []byte { m := newMulti(t); m.warm(); return saved(m.fm.SaveState) }},
}

// restore feeds data to layer l's RestoreState the way a fork receives a
// payload — wrapped in a container, opened once, read through the
// image's Reader — and returns Finish's verdict; anything other than
// success or ErrCorrupt is a test failure.
func restore(t *testing.T, l layer, data []byte) error {
	t.Helper()
	img, err := snapshot.Open(snapshot.Encode("layer", l.name, data), "layer", l.name)
	if err != nil {
		t.Fatalf("%s: a container just encoded does not open: %v", l.name, err)
	}
	r := img.Reader()
	l.fresh(t).RestoreState(r)
	err = snapshot.Finish(r)
	if err != nil && !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("%s: restore failed with an untyped error: %v", l.name, err)
	}
	return err
}

// FuzzRestore feeds arbitrary bytes straight to each exported
// RestoreState: whatever the payload, the restore must return (no panic,
// no loop that outlives the payload) and either Finish cleanly or fail
// with ErrCorrupt. The seeds are each layer's own payload from a warmed
// machine, internal/cache's checkpoint golden, and truncations of both.
func FuzzRestore(f *testing.F) {
	for i, l := range layers {
		for _, s := range l.seeds(f) {
			f.Add(uint8(i), s)
			f.Add(uint8(i), s[:len(s)/2])
			f.Add(uint8(i), s[:len(s)-1])
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		restore(t, layers[int(which)%len(layers)], data)
	})
}

// TestRestoreSeeds pins what the fuzz seeds are for: a layer's own
// payload (and the cache golden) restores cleanly, and every proper
// prefix of it is ErrCorrupt — a payload is never accepted short.
func TestRestoreSeeds(t *testing.T) {
	for _, l := range layers {
		for _, s := range l.seeds(t) {
			if err := restore(t, l, s); err != nil {
				t.Errorf("%s: own payload rejected: %v", l.name, err)
			}
			// Every cut in the first and last 64 bytes, and a stride across
			// the middle (the big arrays make most cuts alike).
			for n := 0; n < len(s); n++ {
				if n > 64 && n < len(s)-64 && n%97 != 0 {
					continue
				}
				if restore(t, l, s[:n]) == nil {
					t.Fatalf("%s: payload truncated to %d of %d bytes accepted", l.name, n, len(s))
				}
			}
		}
	}
}

// TestSealLayers runs every layer's own walk through Seal: the sizing
// pass must count what the saving pass then writes — bulk arrays, sorted
// maps, optional parts — so the container is exactly Encode of the
// payload and sits in a buffer that never grew.
func TestSealLayers(t *testing.T) {
	u, m := newUni(t), newMulti(t)
	u.warm()
	m.warm()
	for name, walk := range map[string]func(snapshot.Codec){
		"Thread": u.threads[0].State, "Processor": u.proc.State, "Hierarchy": u.h.State,
		"Fabric": m.fab.State, "Memory": m.fm.State,
	} {
		sealed := snapshot.Seal("layer", name, walk)
		payload := saved(func(w *snapshot.Writer) { walk(snapshot.Saving(w)) })
		if !bytes.Equal(sealed, snapshot.Encode("layer", name, payload)) {
			t.Errorf("%s: Seal and Encode disagree on the container bytes", name)
		}
		if len(sealed) != cap(sealed) {
			t.Errorf("%s: %d-byte container in a %d-byte buffer: the sizing walk miscounted", name, len(sealed), cap(sealed))
		}
	}
}

// settable returns the addressable struct field f as a settable value,
// exported or not.
func settable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// perturb changes v — every scalar beneath it, every pointer repointed
// at a fresh zero value, every list and map resized — and reports
// whether it found anything to change. It does not follow pointers:
// what a pointer field contributes to a checkpoint is what it points at.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Struct:
		any := false
		for i := 0; i < v.NumField(); i++ {
			if perturb(settable(v.Field(i))) {
				any = true
			}
		}
		return any
	case reflect.Array:
		any := false
		for i := 0; i < v.Len(); i++ {
			if perturb(v.Index(i)) {
				any = true
			}
		}
		return any
	case reflect.Slice:
		// A list of pointers loses its last element (a fresh zero element
		// of a layer type is not a usable layer); any other list has every
		// element changed, or gains one if it was empty.
		switch {
		case v.Type().Elem().Kind() == reflect.Pointer && v.Len() > 0:
			v.Set(v.Slice(0, v.Len()-1))
		case v.Len() == 0:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			for i := 0; i < v.Len(); i++ {
				perturb(v.Index(i))
			}
		}
	case reflect.Map:
		// A new key (the first unused one counting up from zero) holding a
		// zero value — a fresh object for pointer values.
		k := reflect.New(v.Type().Key()).Elem()
		for v.MapIndex(k).IsValid() {
			k.SetUint(k.Uint() + 1)
		}
		e := reflect.New(v.Type().Elem()).Elem()
		if e.Kind() == reflect.Pointer {
			e.Set(reflect.New(e.Type().Elem()))
		}
		v.SetMapIndex(k, e)
	default: // func, interface, chan: nothing a test can change
		return false
	}
	return true
}

// TestStateWalkCoversEveryField is the rule "a field is visited by its
// layer's state walk, or it is derived and listed here" as a test. For
// each checkpointed struct it takes the fields one at a time, changes
// one on a freshly warmed machine and saves: the payload must differ
// from the untouched machine's, unless the field is listed as unvisited
// with the reason, in which case it must not. Adding a field to one of
// these structs therefore fails here until it is visited or listed;
// dropping a visit from a state function fails here too.
func TestStateWalkCoversEveryField(t *testing.T) {
	field := func(v any, path ...string) reflect.Value {
		rv := reflect.ValueOf(v).Elem()
		for _, name := range path {
			rv = settable(rv.FieldByName(name))
			for rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Slice {
				if rv.Kind() == reflect.Slice {
					rv = rv.Index(0)
				} else {
					rv = rv.Elem()
				}
			}
		}
		return rv
	}
	for _, tc := range []struct {
		name string
		// build returns the struct under test inside a freshly warmed
		// machine, and the save of the layer whose walk covers it.
		build func() (reflect.Value, func(*snapshot.Writer))
		// config names the struct's configuration field, which the test
		// leaves alone: walks write parts of it as shape checks.
		config string
		// unvisited lists the fields no walk visits, each with the reason
		// it is not checkpoint state.
		unvisited map[string]string
	}{
		{"core.Thread", func() (reflect.Value, func(*snapshot.Writer)) {
			u := newUni(t)
			u.warm()
			return field(u.threads[0]), u.threads[0].SaveState
		}, "", map[string]string{
			"Prog":     "the restoring driver rebuilds the thread from the same program",
			"insts":    "decoded-instruction cache of Prog",
			"codeBase": "cached Prog.Base",
		}},
		{"core.Processor", func() (reflect.Value, func(*snapshot.Writer)) {
			u := newUni(t)
			u.warm()
			return field(u.proc), u.proc.SaveState
		}, "Cfg", map[string]string{
			"Mem":            "wiring to the memory system, which has its own walk",
			"FMem":           "wiring to the functional memory, which has its own walk",
			"ID":             "diagnostic attribution, set by the driver",
			"sel":            "context-selection summary, recomputed from the contexts",
			"completer":      "probed from Mem at construction",
			"capCompletions": "probed from Mem at construction",
			"idealIF":        "probed from Mem at construction",
			"countIF":        "probed from Mem at construction",
			"Trace":          "caller's hook",
			"MemWatch":       "caller's hook",
			"SwitchWatch":    "caller's hook",
			"BlockHook":      "caller's hook",
			"obsSink":        "observability; a processor with obs set refuses to save",
			"ctxSlots":       "observability; a processor with obs set refuses to save",
			"nextSample":     "observability; a processor with obs set refuses to save",
			"sampleEvery":    "observability; a processor with obs set refuses to save",
		}},
		{"core.hwContext", func() (reflect.Value, func(*snapshot.Writer)) {
			u := newUni(t)
			u.warm()
			return field(u.proc, "ctxs"), u.proc.SaveState
		}, "", map[string]string{
			"idx":    "position in Processor.ctxs",
			"thread": "bindings are the driver's to visit",
		}},
		{"cache.Cache", func() (reflect.Value, func(*snapshot.Writer)) {
			u := newUni(t)
			u.warm()
			return field(u.h, "L1D"), u.h.SaveState
		}, "", map[string]string{
			"lineShift": "geometry from Params; line size is the hierarchy's shape check",
		}},
		{"cache.Hierarchy", func() (reflect.Value, func(*snapshot.Writer)) {
			u := newUni(t)
			u.warm()
			return field(u.h), u.h.SaveState
		}, "P", map[string]string{
			"obsSink": "observability wiring",
		}},
		{"coherence.Node", func() (reflect.Value, func(*snapshot.Writer)) {
			m := newMulti(t)
			m.warm()
			return field(m.fab, "nodes"), m.fab.SaveState
		}, "", map[string]string{
			"fab":     "wiring back to the fabric",
			"obsSink": "observability wiring",
		}},
		{"coherence.Fabric", func() (reflect.Value, func(*snapshot.Writer)) {
			m := newMulti(t)
			m.warm()
			return field(m.fab), m.fab.SaveState
		}, "P", map[string]string{
			"rng":        "a view over rngSrc, which is visited",
			"lastPageNo": "page-lookup memo",
			"lastPage":   "page-lookup memo",
			"pageCache":  "page-lookup memo",
		}},
		{"mem.Memory", func() (reflect.Value, func(*snapshot.Writer)) {
			m := newMulti(t)
			m.warm()
			return field(m.fm), m.fm.SaveState
		}, "", map[string]string{
			"lastPN":   "page-lookup memo",
			"lastPage": "page-lookup memo",
			"cache":    "page-lookup memo",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, save := tc.build()
			base := saved(save)
			typ := v.Type()
			if got := typ.PkgPath()[len("repro/internal/"):] + "." + typ.Name(); got != tc.name {
				t.Fatalf("test case reaches %s", got)
			}
			for name := range tc.unvisited {
				if _, ok := typ.FieldByName(name); !ok {
					t.Errorf("unvisited field %s is listed but does not exist", name)
				}
			}
			for i := 0; i < typ.NumField(); i++ {
				name := typ.Field(i).Name
				if name == tc.config {
					continue
				}
				why, unvisited := tc.unvisited[name]
				v, save := tc.build()
				if !perturb(settable(v.Field(i))) {
					if !unvisited {
						t.Errorf("%s: the test cannot change a %s; visit it or list it with the reason", name, typ.Field(i).Type)
					}
					continue // a listed hook or wire: nothing to check
				}
				// A save that refuses the changed machine has noticed the field.
				moved := func() (moved bool) {
					defer func() { moved = moved || recover() != nil }()
					return !bytes.Equal(saved(save), base)
				}()
				switch {
				case unvisited && moved:
					t.Errorf("%s is listed as unvisited (%s) but changing it changes the payload", name, why)
				case !unvisited && !moved:
					t.Errorf("%s changed but the payload did not: visit it in the state walk, or list it here with the reason it is not state", name)
				}
			}
		})
	}
}

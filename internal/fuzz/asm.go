package fuzz

// Reproducer rendering and I/O. A reproducer directory holds:
//
//	repro.json — the full Spec (the replay source of truth) plus the
//	             divergences that condemned it
//	repro.s    — the interleaved-mode build rendered as assembler
//	             source, byte-exactly re-assemblable to the same
//	             instruction stream (verified by round-trip test), so a
//	             failing program can be inspected and replayed through
//	             cmd/asmrun without the fuzzer in the loop
//
// Rendering depends on the fixed CodeBase/DataBase layout: generated
// instructions address data absolutely (via lui/ori), so the .s file
// reserves one arena symbol at the data base and re-creates every
// initial value at its original offset.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/prog"
)

// ReproVersion guards the reproducer JSON schema.
const ReproVersion = 1

// Reproducer is the persisted failing case.
type Reproducer struct {
	Version     int          `json:"version"`
	Spec        *Spec        `json:"spec"`
	Divergences []Divergence `json:"divergences,omitempty"`
	CellErrors  []string     `json:"cell_errors,omitempty"`
}

// WriteReproducer persists a minimized failing spec under dir (one
// subdirectory per program name) and returns the subdirectory path.
func WriteReproducer(dir string, s *Spec, divs []Divergence, cellErrs []string) (string, error) {
	// Render before creating anything: a spec that does not build leaves
	// no half reproducer.
	src, err := RenderAsm(s, prog.YieldBackoff)
	if err != nil {
		return "", err
	}
	sub := filepath.Join(dir, s.Name())
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	rep := &Reproducer{Version: ReproVersion, Spec: s, Divergences: divs, CellErrors: cellErrs}
	if err := metrics.WriteFileAtomic(filepath.Join(sub, "repro.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}); err != nil {
		return "", err
	}
	if err := metrics.WriteFileAtomic(filepath.Join(sub, "repro.s"), func(w io.Writer) error {
		_, err := io.WriteString(w, src)
		return err
	}); err != nil {
		return "", err
	}
	return sub, nil
}

// LoadReproducer reads a reproducer from a directory (containing
// repro.json) or directly from a JSON file.
func LoadReproducer(path string) (*Reproducer, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		path = filepath.Join(path, "repro.json")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Reproducer
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("fuzz: %s: %w", path, err)
	}
	if rep.Version != ReproVersion {
		return nil, fmt.Errorf("fuzz: %s: reproducer version %d, want %d", path, rep.Version, ReproVersion)
	}
	if rep.Spec == nil {
		return nil, fmt.Errorf("fuzz: %s: no spec", path)
	}
	if err := rep.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("fuzz: %s: %w", path, err)
	}
	return &rep, nil
}

// RenderAsm renders the spec's build for the given yield mode as
// assembler source accepted by prog.Assemble with the same code/data
// bases. Yield instructions are rendered as explicit backoff/switch
// mnemonics (which bypass the assembler's yield-mode indirection), so
// the round trip is instruction-exact.
func RenderAsm(s *Spec, mode prog.YieldMode) (string, error) {
	p, err := BuildProgram(s, mode)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# interleavefuzz reproducer %s\n", s.Name())
	fmt.Fprintf(&b, "# seed %d, threads %d, yield mode %d\n", s.Seed, s.Threads, mode)
	if s.Mut != "" {
		fmt.Fprintf(&b, "# injected mutation: %s\n", s.Mut)
	}
	fmt.Fprintf(&b, "# assemble with code base %#x, data base %#x, arena %d bytes\n", CodeBase, DataBase, DataSize)
	fmt.Fprintf(&b, "# SPMD: r4 = thread id, r5 = thread count\n")
	fmt.Fprintf(&b, ".alloc D %d 64\n", DataSize)
	for _, d := range p.Init {
		off := d.Addr - DataBase
		if d.Double {
			fmt.Fprintf(&b, ".double D+%d %s\n", off,
				strconv.FormatFloat(math.Float64frombits(d.Val), 'g', -1, 64))
		} else {
			fmt.Fprintf(&b, ".word D+%d %#x\n", off, uint32(d.Val))
		}
	}

	targets := map[int]bool{}
	for _, in := range p.Insts {
		if in.Op.Info().Form.Has(isa.OperandTarget) {
			targets[int(in.Target)] = true
		}
	}
	region := isa.RegionNormal
	for i, in := range p.Insts {
		if targets[i] {
			fmt.Fprintf(&b, "L%d:\n", i)
		}
		if in.Region != region {
			region = in.Region
			if region == isa.RegionSync {
				b.WriteString(".region sync\n")
			} else {
				b.WriteString(".region normal\n")
			}
		}
		b.WriteString("\t" + in.Format("L") + "\n")
	}
	return b.String(), nil
}

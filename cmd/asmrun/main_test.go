package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prog"
)

// The command is pinned end to end: the test binary re-executes itself as
// asmrun (TestMain below), so the tests see exactly what a user sees on
// stdout and stderr.

const runAsMain = "ASMRUN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// asmrun runs the command with args from the repository root and returns
// its stdout and stderr; it fails the test unless the command exits 0.
func asmrun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := asmrunExit(t, args...)
	if code != 0 {
		t.Fatalf("asmrun %s: exit %d\nstderr: %s", strings.Join(args, " "), code, stderr)
	}
	return stdout, stderr
}

// asmrunExit is asmrun for a run that may fail: it also returns the exit
// code.
func asmrunExit(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("asmrun %s: %v", strings.Join(args, " "), err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errb.String(), code
}

const saxpy = "examples/asm/saxpy.s"

var saxpyRun = []string{"-scheme", "interleaved", "-contexts", "2", "-copies", "2"}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestListing(t *testing.T) {
	out, stderr := asmrun(t, "-list", saxpy)
	if want := golden(t, "saxpy.list"); out != want || stderr != "" {
		t.Errorf("-list output changed\ngot:\n%s\nwant:\n%s\nstderr: %q", out, want, stderr)
	}
}

func TestSummary(t *testing.T) {
	out, stderr := asmrun(t, append(saxpyRun, saxpy)...)
	if want := golden(t, "saxpy.run"); out != want || stderr != "" {
		t.Errorf("run output changed\ngot:\n%s\nwant:\n%s\nstderr: %q", out, want, stderr)
	}
}

// TestUsageErrors: a run asmrun cannot make sense of exits 2 before it
// assembles anything. Every copy needs a context of its own, and a copy
// count other than the number of threads loaded would hand each thread
// a wrong thread count in mp.NThreadsReg.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-contexts", "1", "-copies", "3", saxpy}, "-copies 3 outside 1..1"},
		{[]string{"-copies", "0", saxpy}, "-copies 0 outside 1..1"},
		{[]string{"-scheme", "nosuch", saxpy}, "unknown scheme"},
		{[]string{"-copies", "2"}, "usage"},
		{[]string{"-limit", "-5", saxpy}, "-limit -5"},
		{[]string{"-limit", "0", saxpy}, "-limit 0"},
		{[]string{"-scheme", "interleaved", "-contexts", "65", saxpy}, "-contexts 65"},
		{[]string{"-scheme", "single", "-contexts", "4", saxpy}, "-contexts 4"},
	} {
		out, stderr, code := asmrunExit(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("asmrun %s: exit %d, stdout %q, stderr %q; want exit 2, no output and %q",
				strings.Join(tc.args, " "), code, out, stderr, tc.want)
		}
	}
}

// TestProgramPinned pins the program asmrun links from saxpy.s (at the
// code and data bases main assembles at) by Program.Fingerprint: every
// instruction field, decoded fields included, the data image and labels.
func TestProgramPinned(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", saxpy))
	if err != nil {
		t.Fatal(err)
	}
	p, err := prog.Assemble(saxpy, 0x1000, 0x4000_0000, 1<<24, string(src))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Fingerprint(), uint64(0x36a31dde63d9d083); got != want {
		t.Errorf("saxpy fingerprint %#016x, want %#016x", got, want)
	}
}

// TestTrace pins the whole -trace output: one "cycle  ctxN  disassembly"
// line per issued instruction, in issue order, followed by the summary.
func TestTrace(t *testing.T) {
	out, stderr := asmrun(t, append(append([]string{"-trace"}, saxpyRun...), saxpy)...)
	if stderr != "" {
		t.Errorf("-trace wrote to stderr: %q", stderr)
	}
	const (
		wantIssued = 4632 // the summary's instruction count
		wantFirst  = "      42  ctx0  lui r8, 16384"
		wantSHA256 = "00b3a3ca9dd88f8f04c3e35dbae1d104fc45cd7b0ba481328b9bb54a9f027808"
	)
	summary := golden(t, "saxpy.run")
	trace, ok := strings.CutSuffix(out, summary)
	if !ok {
		t.Fatalf("-trace output does not end with the run summary:\n%s", out[max(0, len(out)-len(summary)):])
	}
	lines := strings.Split(strings.TrimSuffix(trace, "\n"), "\n")
	if len(lines) != wantIssued || lines[0] != wantFirst {
		t.Errorf("trace has %d lines starting %q, want %d starting %q", len(lines), lines[0], wantIssued, wantFirst)
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != wantSHA256 {
		t.Errorf("-trace output digest %s, want %s", got, wantSHA256)
	}
}

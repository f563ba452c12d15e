package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The test binary re-executes itself as interleavefuzz (TestMain), so a
// row sees the exit code and the stdout a user would.
const runAsMain = "INTERLEAVEFUZZ_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// TestBadFlagsAreUsageErrors: a flag no sweep can honour exits 2 before
// sweeping, so no report is printed. Each row bounds the sweep (-n 1
// -quick) so that a command that does start one still ends quickly.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-mut", "foo", "-n", "1", "-quick"},
		{"-threads", "9", "-n", "1", "-quick"},
		{"-n", "0"},
		{"-n", "-1"},
		{"-limit", "-5", "-n", "1", "-quick"},
		{"-j", "0", "-n", "1", "-quick"},
		{"-j", "-5", "-n", "1", "-quick"},
	} {
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), runAsMain+"=1")
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("%s: %v", strings.Join(args, " "), err)
			}
			code = exit.ExitCode()
		}
		if code != 2 || out.Len() != 0 || errb.Len() == 0 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no report and a reason",
				strings.Join(args, " "), code, out.String(), errb.String())
		}
	}
}

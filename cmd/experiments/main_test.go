package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// SWTNAS_TEST_MAIN set it runs main() on its arguments, so the test below
// drives the real flag parsing and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("SWTNAS_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExitCodes covers the command's flags and arguments: a good run prints
// each experiment under its header and exits 0; an unknown scale or
// experiment exits 1 before any experiment prints (a misspelt last name
// does not wait for the ones before it); an unknown flag exits 2.
func TestExitCodes(t *testing.T) {
	small := []string{"-apps", "nt3", "-train", "24", "-val", "12"}
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings stdout must hold; nil: stdout empty
		stderr string
	}{
		{name: "table and figure", args: append(small, "table1", "fig3"), code: 0,
			stdout: []string{"==> table1 (scale=quick, seeds=2, budget=56)", "Table I:", "==> fig3", "LCS transfers"}},
		{name: "overrides", args: append(small, "-seeds", "1", "-budget", "3", "-seed", "5", "fig11"), code: 0,
			stdout: []string{"==> fig11 (scale=quick, seeds=1, budget=3)", "(n=3)"}},
		{name: "unknown scale", args: append([]string{"-scale", "huge"}, small...), code: 1,
			stderr: `unknown scale "huge"`},
		{name: "unknown experiment last", args: append(small, "table1", "fgi8"), code: 1,
			stderr: `unknown experiment "fgi8"`},
		{name: "all among others", args: append(small, "table1", "all"), code: 1,
			stderr: `unknown experiment "all"`},
		{name: "unknown flag", args: []string{"-budgett", "3"}, code: 2,
			stderr: "flag provided but not defined: -budgett"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "SWTNAS_TEST_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.code {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, &stdout, &stderr)
			}
			if c.stdout == nil && stdout.Len() > 0 {
				t.Errorf("stdout not empty:\n%s", &stdout)
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, &stdout)
				}
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, &stderr)
			}
		})
	}
}

package main

import (
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

// exitCase is one run of the command: its arguments, the exit code, a
// substring its combined output must hold and one it must not.
type exitCase struct {
	name         string
	args         []string
	code         int
	want, absent string
}

func runExitCases(t *testing.T, cases []exitCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "SWTNAS_TEST_MAIN=1")
			out, err := cmd.CombinedOutput()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.code || !strings.Contains(string(out), c.want) || (c.absent != "" && strings.Contains(string(out), c.absent)) {
				t.Fatalf("exit code %d, want %d with %q and without %q in the output:\n%s", code, c.code, c.want, c.absent, out)
			}
		})
	}
}

// TestExitCodes: -dtype is not a flag (a task trains in its search's
// dtype), nor is -heartbeat (the coordinator's silence timeout is fixed, so
// the worker's ping period is not the operator's to set); each exits 2
// before the worker dials its coordinator, like any unknown flag.
func TestExitCodes(t *testing.T) {
	runExitCases(t, []exitCase{
		{name: "invalid dtype", args: []string{"-dtype", "f32", "-addr", "127.0.0.1:1"}, code: 2, want: "flag provided but not defined: -dtype", absent: "connecting"},
		{name: "heartbeat", args: []string{"-heartbeat", "2s", "-addr", "127.0.0.1:1"}, code: 2, want: "flag provided but not defined: -heartbeat", absent: "connecting"},
		{name: "unknown flag", args: []string{"-bogus"}, code: 2, want: "flag provided but not defined: -bogus"},
	})
}

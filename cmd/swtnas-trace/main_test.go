package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"swtnas/internal/trace"
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

// TestExitCodes: a summary of a written trace prints it and exits 0; an
// unknown subcommand exits 1 naming it, before any trace file is read (the
// one named does not exist); no trace exits 1 with the usage; an unknown
// replay flag exits 2.
func TestExitCodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{App: "nt3", Scheme: "LCS", Seed: 7, Records: []trace.Record{
		{ID: 0, Score: 0.5, ParentID: -1},
		{ID: 1, Score: 0.75, ParentID: 0, TransferCopied: 2},
	}}
	if err := tr.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	runExitCases(t, []exitCase{
		{name: "summary", args: []string{"summary", path}, code: 0, want: "best score      0.7500 (candidate 1)"},
		{name: "unknown subcommand", args: []string{"sumary", "missing.json"}, code: 1, want: `unknown command "sumary"`, absent: "missing.json"},
		{name: "no trace", args: []string{"summary"}, code: 1, want: "usage: swtnas-trace"},
		{name: "unknown flag", args: []string{"replay", "-bogus", path}, code: 2, want: "flag provided but not defined: -bogus"},
	})
}

package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// SWTNAS_TEST_MAIN set it runs main() on its arguments, so the tests below
// drive the real flag parsing, signal handling and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("SWTNAS_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCPUProfile covers -cpuprofile: absent, it writes nothing; given a
// path, the search leaves a non-empty profile there, also when Ctrl-C ends
// the search early; a path that cannot be created fails before any
// candidate is trained.
func TestCPUProfile(t *testing.T) {
	small := []string{"-app", "nt3", "-train", "24", "-val", "12", "-population", "4", "-sample", "2"}
	for _, c := range []struct {
		name      string
		budget    string
		profile   string // relative to the test's directory; "" = flag absent
		interrupt bool   // SIGINT after the first candidate line
		wantFail  bool
	}{
		{name: "absent", budget: "2"},
		{name: "whole search", budget: "3", profile: "cpu.prof"},
		{name: "interrupted", budget: "100000", profile: "cpu.prof", interrupt: true},
		{name: "uncreatable", budget: "2", profile: "no/such/dir/cpu.prof", wantFail: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-budget", c.budget}, small...)
			path := filepath.Join(dir, c.profile)
			if c.profile != "" {
				args = append(args, "-cpuprofile", path)
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "SWTNAS_TEST_MAIN=1")
			cmd.Dir = dir
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			lines := 0
			for sc := bufio.NewScanner(out); sc.Scan(); lines++ {
				if c.interrupt && lines == 0 {
					if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
						t.Fatal(err)
					}
				}
			}
			err = cmd.Wait()
			if c.wantFail {
				if err == nil || lines > 0 {
					t.Fatalf("exit %v after %d lines of output, want a failure before the search", err, lines)
				}
				return
			}
			if err != nil {
				t.Fatalf("exit: %v", err)
			}
			if c.profile == "" {
				if entries, _ := os.ReadDir(dir); len(entries) != 0 {
					t.Fatalf("run without the flag left %d files behind", len(entries))
				}
				return
			}
			if st, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if st.Size() == 0 {
				t.Fatal("the profile is empty")
			}
		})
	}
}

// TestSpaceFlag covers -space: the command reads the spec file and searches
// its space over the -app dataset; a file that cannot be read fails before
// any candidate is trained.
func TestSpaceFlag(t *testing.T) {
	const spec = `{"name": "toy-space", "input": [10, 10, 1], "output_units": 10,
  "nodes": [{"name": "d", "ops": [{"type": "identity"}, {"type": "dense_act", "units": 16, "act": "relu"}]}]}`
	dir := t.TempDir()
	path := filepath.Join(dir, "space.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(space string) (string, error) {
		cmd := exec.Command(os.Args[0], "-app", "mnist", "-space", space, "-budget", "3", "-seed", "4",
			"-train", "32", "-val", "16", "-population", "2", "-sample", "2", "-progress=false")
		cmd.Env = append(os.Environ(), "SWTNAS_TEST_MAIN=1")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	out, err := run(path)
	if err != nil {
		t.Fatalf("exit %v:\n%s", err, out)
	}
	if !strings.Contains(out, "search toy-space/LCS: 3 candidates") {
		t.Fatalf("output does not report the spec's space:\n%s", out)
	}
	out, err = run(filepath.Join(dir, "missing.json"))
	if err == nil || !strings.Contains(out, "missing.json: no such file") || strings.Contains(out, "search ") {
		t.Fatalf("exit %v, want a failure naming the file before the search:\n%s", err, out)
	}
}

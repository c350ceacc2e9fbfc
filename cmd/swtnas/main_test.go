package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
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

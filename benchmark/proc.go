package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// environment is recorded in every report so a number can be traced to the
// box that produced it.
type environment struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	FSType     string  `json:"fs_type"`
	Load1      float64 `json:"load1_at_start"`
}

func recordEnvironment(dir string) environment {
	e := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), FSType: fsType(dir)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}

// fsType names the filesystem holding path: the longest mount point in
// /proc/mounts that prefixes it ("unknown" off Linux).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// cpuSelf is this process's user+system CPU time so far.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvDur(ru.Utime) + tvDur(ru.Stime)
}

// rssSelfKB is this process's peak resident set size.
func rssSelfKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// child is a process under test. Its stderr is kept for error messages and
// may be read once the process has been stopped.
type child struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
}

// live holds every child that has been started and not yet waited for, so
// that no way out of the benchmark leaves one running.
var live = struct {
	sync.Mutex
	m map[*child]struct{}
}{m: map[*child]struct{}{}}

func startChild(bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...)}
	c.cmd.Stdout, c.cmd.Stderr = io.Discard, &c.stderr
	live.Lock()
	defer live.Unlock()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	live.m[c] = struct{}{}
	return c, nil
}

// stopChildrenOnSignal makes an interrupted or terminated benchmark kill its
// children and wait for each before it exits (deferred teardowns do not run
// on a signal). The lock is kept, so no child starts in the meantime.
func stopChildrenOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		live.Lock()
		for c := range live.m {
			_ = c.cmd.Process.Kill() // already exited is fine
		}
		for c := range live.m {
			_ = c.cmd.Wait() // "Wait was already called" by a concurrent stop is fine
		}
		fmt.Fprintln(os.Stderr, "benchmark: stopped by signal:", s)
		os.Exit(1)
	}()
}

// cpu reads a live child's user+system time from /proc.
func (c *child) cpu() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks (100/s).
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * (time.Second / 100)
}

// periodPeakKB returns a live child's peak RSS since the previous call and
// starts a new period: VmHWM of /proc/<pid>/status, reset by writing 5 to
// clear_refs. Where the kernel offers neither it returns 0, and the caller
// falls back on the peak over the child's whole life.
func (c *child) periodPeakKB() int64 {
	dir := fmt.Sprintf("/proc/%d/", c.cmd.Process.Pid)
	b, err := os.ReadFile(dir + "status")
	if err != nil {
		return 0
	}
	var kb int64
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	if err := os.WriteFile(dir+"clear_refs", []byte("5"), 0); err != nil {
		return 0
	}
	return kb
}

// stop ends the child (SIGTERM, then SIGKILL after 5 s), waits for it and
// returns its total CPU time and peak RSS.
func (c *child) stop(sig os.Signal) (cpu time.Duration, rssKB int64) {
	if sig != nil {
		_ = c.cmd.Process.Signal(sig) // already exited is fine
	}
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait() // exit status of a signalled child is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
	live.Lock()
	delete(live.m, c)
	live.Unlock()
	if ps := c.cmd.ProcessState; ps != nil {
		cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rssKB = int64(ru.Maxrss)
		}
	}
	return cpu, rssKB
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// dirSize sums the sizes of the regular files under root (0 if absent).
func dirSize(root string) int64 {
	var n int64
	_ = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a file deleted mid-walk counts as zero
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

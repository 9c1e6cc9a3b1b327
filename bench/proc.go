package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workDir is where the benchmark keeps everything it writes: the gyod
// binary and one scratch directory per run, all inside the checkout.
const workDir = ".bench_build"

// buildGyod compiles cmd/gyod of the module at root into root's
// workDir and returns the binary's path and how long the build took.
func buildGyod(root string) (string, time.Duration, error) {
	if err := os.MkdirAll(filepath.Join(root, workDir), 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(root, workDir, "gyod")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gyod")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/gyod: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// procs tracks every gyod this process started, so one call reaps them
// all whatever path the run ends on.
type procs struct {
	mu   sync.Mutex
	live []*gyod
}

func (ps *procs) add(g *gyod) {
	ps.mu.Lock()
	ps.live = append(ps.live, g)
	ps.mu.Unlock()
}

// killAll kills every tracked process group and waits for each child.
func (ps *procs) killAll() {
	ps.mu.Lock()
	live := ps.live
	ps.live = nil
	ps.mu.Unlock()
	for _, g := range live {
		g.kill()
	}
}

// gyod is one running server process.
type gyod struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *lockedBuffer
	done   chan struct{} // closed once the process has been waited for
}

// lockedBuffer collects a child's stderr while the scanner goroutine
// appends and a failure report reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) add(line string) {
	b.mu.Lock()
	b.buf.WriteString(line)
	b.buf.WriteByte('\n')
	b.mu.Unlock()
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startGyod launches bin on an ephemeral loopback port, in its own
// process group, and waits for its "listening on" line.
func (ps *procs) startGyod(bin string, args ...string) (*gyod, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	g := &gyod{cmd: cmd, stderr: &lockedBuffer{}, done: make(chan struct{})}
	ps.add(g)
	addrCh := make(chan string, 1)
	go func() {
		defer close(g.done)
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			g.stderr.add(line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		// The pipe is drained; Wait's error is the exit status, which a
		// killed child always reports and the caller does not act on.
		_ = cmd.Wait()
	}()
	select {
	case addr := <-addrCh:
		g.base = "http://" + addr
		return g, nil
	case <-g.done:
		return nil, fmt.Errorf("gyod exited before listening:\n%s", g.stderr)
	case <-time.After(30 * time.Second):
		g.kill()
		return nil, fmt.Errorf("gyod did not listen within 30s:\n%s", g.stderr)
	}
}

// kill SIGKILLs the child's process group and waits until it is gone.
// Killing a child that has already been reaped is a no-op, so that its
// recycled pid is never signalled.
func (g *gyod) kill() {
	select {
	case <-g.done:
		return
	default:
	}
	if err := syscall.Kill(-g.cmd.Process.Pid, syscall.SIGKILL); err != nil && !errors.Is(err, syscall.ESRCH) {
		_ = g.cmd.Process.Kill()
	}
	<-g.done
}

// cpuMs returns the process's user+system CPU time in milliseconds.
func (g *gyod) cpuMs() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", g.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPUMs(string(data))
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MiB.
func (g *gyod) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", g.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWMMB(string(data))
}

// clockTickMs is the length of one /proc clock tick: USER_HZ is 100 on
// every Linux ABI Go supports.
const clockTickMs = 10.0

// parseStatCPUMs extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) is parenthesised and may itself hold spaces or
// parentheses, so fields are counted from the last ')'.
func parseStatCPUMs(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("non-numeric cpu fields in /proc stat line %q", stat)
	}
	return float64(utime+stime) * clockTickMs, nil
}

// parseStatusHWMMB extracts VmHWM from /proc/<pid>/status.
func parseStatusHWMMB(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return float64(kb) / 1024, nil
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// selfCPUMs is this process's own user+system CPU time, the numerator
// of driver.cpu_share.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// chaseMs times a fixed walk through a 16 MiB cycle of indexes, one
// dependent cache miss per step: a reference for how fast this machine
// is right now. The sandbox has slow minutes (a neighbour on the host);
// a record whose reference is off explains numbers that all moved
// together.
func chaseMs() float64 {
	const n = 4 << 20
	next := make([]uint32, n)
	// A single cycle through every slot (n is a power of two and the
	// stride is odd), far enough apart to defeat the prefetcher.
	const stride = 1_000_003
	for i := uint32(0); i < n; i++ {
		next[i] = (i + stride) % n
	}
	t0 := time.Now()
	var at uint32
	for i := 0; i < 1<<20; i++ {
		at = next[at]
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if at == n { // never: keeps the walk from being optimised away
		panic("unreachable")
	}
	return ms
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

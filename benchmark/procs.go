package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves on the machine: one scratch
// directory (WAL dirs, server logs) and the server children. close — also
// run on SIGINT/SIGTERM — kills the children, waits for them and removes
// the directory.
type sandbox struct {
	dir    string
	server string // dlht-server binary

	mu       sync.Mutex
	children []*child
	closed   bool
}

// child is one dlht-server process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	log    string
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// outRoot is where build products, traces and scratch directories go: the
// benchmark's own out/ directory, whether the program was started from the
// repository root or from benchmark/.
func outRoot() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// buildServer compiles cmd/dlht-server from the tree into out/bin. The
// output path is stable, so after the first run the go tool finds it up to
// date and the step costs a stat pass.
func buildServer(root string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(root, "bin", "dlht-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/dlht-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build dlht-server: %v\n%s", err, out)
	}
	return bin, nil
}

func newSandbox(root, server string) (*sandbox, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	sb := &sandbox{dir: dir, server: server}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "benchmark: %v: stopping servers\n", s)
		sb.close()
		os.Exit(1)
	}()
	return sb, nil
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// spawn starts a dlht-server on a fresh loopback port with the given extra
// flags and returns once it accepts connections (on extra listen addresses
// in alsoDial too). A child that exits before it is ready is reported with
// the tail of its log.
func (sb *sandbox) spawn(alsoDial []string, flags ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	sb.mu.Lock()
	n := len(sb.children)
	sb.mu.Unlock()
	c := &child{addr: addr, log: filepath.Join(sb.dir, fmt.Sprintf("server-%d.log", n)), exited: make(chan struct{})}
	logf, err := os.Create(c.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	c.cmd = exec.Command(sb.server, append([]string{"-addr", addr}, flags...)...)
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	// A benchmark that dies without running close must not leave servers.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	sb.mu.Lock()
	if sb.closed {
		sb.mu.Unlock()
		return nil, fmt.Errorf("sandbox closed")
	}
	err = c.cmd.Start()
	if err == nil {
		sb.children = append(sb.children, c)
	}
	sb.mu.Unlock()
	if err != nil {
		return nil, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	for _, a := range append([]string{addr}, alsoDial...) {
		if err := c.waitReady(a); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// waitReady dials addr until the child accepts or exits.
func (c *child) waitReady(addr string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			// A dial to a dead local port can connect to itself.
			self := conn.LocalAddr().String() == conn.RemoteAddr().String()
			conn.Close()
			if !self {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("dlht-server %s exited before it was ready: %v\n%s", c.addr, c.err, c.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dlht-server %s not ready after 60s\n%s", c.addr, c.logTail())
		}
	}
}

func (c *child) logTail() string {
	b, _ := os.ReadFile(c.log)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(bytes.TrimSpace(b))
}

// alive reports an early exit as an error.
func (c *child) alive() error {
	select {
	case <-c.exited:
		return fmt.Errorf("dlht-server %s exited early: %v\n%s", c.addr, c.err, c.logTail())
	default:
		return nil
	}
}

// kill sends SIGKILL and waits for the child to be reaped.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// killAll stops every child but keeps the scratch directory.
func (sb *sandbox) killAll() {
	sb.mu.Lock()
	cs := sb.children
	sb.children = nil
	sb.mu.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

func (sb *sandbox) close() {
	sb.mu.Lock()
	if sb.closed {
		sb.mu.Unlock()
		return
	}
	sb.closed = true
	sb.mu.Unlock()
	sb.killAll()
	os.RemoveAll(sb.dir)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux port Go supports.
const clockTick = 100

// procCPU returns the user+system CPU seconds pid has used so far.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTick, nil
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostSteal returns the CPU seconds the hypervisor has given to other guests
// while this one had work to run, summed over the machine's CPUs since boot;
// 0 where /proc/stat does not say.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal …
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseUint(f[8], 10, 64)
	return float64(ticks) / clockTick
}

// procRSS returns pid's resident set size in bytes.
func procRSS(pid int) (uint64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/%d/statm", pid)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * uint64(os.Getpagesize()), nil
}

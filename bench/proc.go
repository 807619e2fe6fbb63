package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"time"
)

// startServer, expect and the banner patterns repeat what
// internal/experiments/spawn.go has unexported: this change may touch nothing
// outside bench/, so the two are to be folded by a later one that exports
// them. What is Linux-only (process groups, /proc) is in proc_linux.go.

// Everything the benchmark leaves on disk lives under workDir, inside the
// checkout the command runs from: the server binary and each server's
// -data directory.
const workDir = ".bench_build"

// readyTimeout bounds the wait for a listening banner. The server has no
// /readyz yet, so readiness is what it prints.
const readyTimeout = 60 * time.Second

var (
	wireBanner       = regexp.MustCompile(`controller listening on ([^ ]+) `)
	httpBanner       = regexp.MustCompile(`querying interface on http://([^ ]+) `)
	routerWireBanner = regexp.MustCompile(`federation router listening on ([^ ]+) `)
	routerHTTPBanner = regexp.MustCompile(`federated querying interface on http://([^ ]+) `)
)

// buildServer compiles cmd/inca-server from the checkout's source into
// workDir and returns the absolute binary path and the build time.
func buildServer() (string, time.Duration, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(workDir, "inca-server"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/inca-server")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("build inca-server: %v: %s", err, stderr.Bytes())
	}
	return bin, time.Since(start), nil
}

// serverProc is one spawned inca-server. The in-process smoke test stands
// servers up inside the test binary instead: cmd is nil, pid is the test's
// own, and stop shuts the listeners.
type serverProc struct {
	cmd      *exec.Cmd
	pid      int
	stop     func()
	killMu   sync.Mutex // the exit paths (return, error, signal) may race to kill
	args     []string
	lines    chan string
	wireAddr string
	httpAddr string
}

// procSet tracks every server the benchmark starts so that any exit path
// can kill them all and the leak check can account for each.
type procSet struct {
	bin string
	mu  sync.Mutex
	all []*serverProc
}

// start launches the server in its own process group and waits for both
// listening banners.
func (ps *procSet) start(wireRE, httpRE *regexp.Regexp, args ...string) (*serverProc, error) {
	cmd := exec.Command(ps.bin, args...)
	cmd.Stderr = os.Stderr
	// Own process group: killAll signals the group, so nothing the server
	// might fork outlives it. Pdeathsig covers the benchmark itself dying
	// without running its exit path.
	cmd.SysProcAttr = ownGroup()
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s %v: %w", ps.bin, args, err)
	}
	// Buffer: banners plus the once-a-minute status line of a short run.
	p := &serverProc{cmd: cmd, pid: cmd.Process.Pid, args: args, lines: make(chan string, 64)}
	ps.mu.Lock()
	ps.all = append(ps.all, p)
	ps.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default: // never block the child on a full buffer
			}
		}
		close(p.lines)
	}()
	if p.wireAddr, err = p.expect(wireRE); err != nil {
		return nil, err
	}
	if p.httpAddr, err = p.expect(httpRE); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *serverProc) expect(re *regexp.Regexp) (string, error) {
	deadline := time.After(readyTimeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("server %v exited before printing %s", p.args, re)
			}
			if m := re.FindStringSubmatch(line); m != nil {
				return m[1], nil
			}
		case <-deadline:
			return "", fmt.Errorf("server %v: timed out waiting for %s", p.args, re)
		}
	}
}

// kill SIGKILLs the server's process group and reaps it.
func (p *serverProc) kill() {
	p.killMu.Lock()
	defer p.killMu.Unlock()
	if p.cmd == nil {
		if p.stop != nil {
			p.stop()
			p.stop = nil
		}
		return
	}
	// Once reaped, the pid may belong to some other process.
	if p.cmd.ProcessState != nil {
		return
	}
	killGroup(p.pid)
	p.cmd.Wait()
}

func (p *serverProc) alive() bool {
	p.killMu.Lock()
	defer p.killMu.Unlock()
	return p.cmd != nil && p.cmd.ProcessState == nil
}

// killAll stops every server ever started through ps.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.all {
		p.kill()
	}
}

// leaked counts inca-server processes built by this run that are still
// alive: ours by pid, and any other process executing the same binary.
func (ps *procSet) leaked() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, p := range ps.all {
		if p.alive() {
			n++
		}
	}
	for _, pid := range runningBinary(ps.bin) {
		ours := false
		for _, p := range ps.all {
			if p.pid == pid {
				ours = true
			}
		}
		if !ours {
			n++
		}
	}
	return n
}

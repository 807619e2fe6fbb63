package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"
)

// Process-spawning helpers for what drives a real inca-server over real
// TCP instead of an in-process cell — the capacity harness and the
// multi-process smoke tests: build a binary once, start instances on
// ephemeral ports, and scan their stdout for the addresses they announce.

// The banners inca-server prints once it listens; each captures the
// address.
var (
	WireAddrRE   = regexp.MustCompile(`controller listening on ([^ ]+) `)
	HTTPAddrRE   = regexp.MustCompile(`querying interface on http://([^ ]+) `)
	RouterWireRE = regexp.MustCompile(`federation router listening on ([^ ]+) `)
	RouterHTTPRE = regexp.MustCompile(`federated querying interface on http://([^ ]+) `)
)

// BuildBinary compiles cmd/<name> (inca-server, inca-consumer, ...) into
// dir and returns the binary path. It locates the module root through
// `go env GOMOD` so the caller's working directory does not matter.
func BuildBinary(dir, name string) (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("experiments: locate module: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("experiments: not inside the inca module")
	}
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	build.Dir = filepath.Dir(gomod)
	var stderr bytes.Buffer
	build.Stderr = &stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("experiments: build %s: %v: %s", name, err, stderr.Bytes())
	}
	return bin, nil
}

// Proc is one spawned process with a line-scanned stdout. Every line is
// kept until a Next or Expect reads past it: the lines wait in an
// unbounded queue, so the child never blocks on its pipe and no line is
// lost.
type Proc struct {
	Cmd *exec.Cmd

	mu      sync.Mutex
	queue   []string      // lines not read yet
	closed  bool          // stdout has ended
	arrived chan struct{} // signalled after each line and at the end
}

// Start starts bin with args.
func Start(bin string, args ...string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("experiments: start %s %v: %w", bin, args, err)
	}
	p := &Proc{Cmd: cmd, arrived: make(chan struct{}, 1)}
	go func() {
		sc := bufio.NewScanner(out)
		for more := true; more; {
			more = sc.Scan()
			p.mu.Lock()
			if more {
				p.queue = append(p.queue, sc.Text())
			} else {
				p.closed = true
			}
			p.mu.Unlock()
			select {
			case p.arrived <- struct{}{}:
			default: // a wakeup is already pending
			}
		}
	}()
	return p, nil
}

// Next reads stdout up to the next line matching re and returns its
// submatches as regexp's FindStringSubmatch does: the whole match, then
// every capture group. The lines before it are consumed.
func (p *Proc) Next(re *regexp.Regexp, timeout time.Duration) ([]string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		for len(p.queue) > 0 {
			line := p.queue[0]
			p.queue = p.queue[1:]
			if m := re.FindStringSubmatch(line); m != nil {
				p.mu.Unlock()
				return m, nil
			}
		}
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("experiments: %s exited before printing %s", p.Cmd.Path, re)
		}
		select {
		case <-p.arrived:
		case <-deadline.C:
			return nil, fmt.Errorf("experiments: timed out waiting for %s", re)
		}
	}
}

// Expect is Next's first capture group.
func (p *Proc) Expect(re *regexp.Regexp, timeout time.Duration) (string, error) {
	m, err := p.Next(re, timeout)
	if err != nil {
		return "", err
	}
	return m[1], nil
}

// Stop kills the process and reaps it.
func (p *Proc) Stop() {
	if p.Cmd.Process != nil {
		p.Cmd.Process.Kill()
		p.Cmd.Wait()
	}
}

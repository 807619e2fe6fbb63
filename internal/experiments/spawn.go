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

// Proc is one spawned process with a line-scanned stdout. Lines nobody
// reads past the buffer are dropped, so the child never blocks on them.
type Proc struct {
	Cmd   *exec.Cmd
	lines chan string
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
	p := &Proc{Cmd: cmd, lines: make(chan string, 64)}
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
	return p, nil
}

// Expect scans stdout until a line matches re, returning the first
// capture group.
func (p *Proc) Expect(re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("experiments: %s exited before printing %s", p.Cmd.Path, re)
			}
			if m := re.FindStringSubmatch(line); m != nil {
				return m[1], nil
			}
		case <-deadline:
			return "", fmt.Errorf("experiments: timed out waiting for %s", re)
		}
	}
}

// Stop kills the process and reaps it.
func (p *Proc) Stop() {
	if p.Cmd.Process != nil {
		p.Cmd.Process.Kill()
		p.Cmd.Wait()
	}
}

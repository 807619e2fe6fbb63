package inca_test

// Multi-process feed smoke test (DESIGN.md §5h): a real inca-server with
// its change feed enabled, and real inca-consumer -subscribe processes
// over real TCP. Consumer A catches up from an empty snapshot, observes
// ten stored generations as pushed change events, and is killed at its
// last cursor. Ten more reports land while nobody is subscribed; consumer
// B then resumes from A's cursor and must catch up through one snapshot
// (no replayed or missing generation), after which five live stores
// arrive as change events. The test asserts every generation was observed
// exactly once — A's changes, B's catch-up snapshot, B's changes — and
// that B's final materialized hash matches the server's polled /cache.
//
// The test builds and spawns both binaries, so it is gated behind
// INCA_FEED_SMOKE=1 and run by `make feed-smoke` (part of `make check`)
// rather than on every plain `go test ./...`.

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/loadgen"
	"inca/internal/wire"
)

// feedProc is a spawned consumer whose stdout lines ARE the assertions:
// unlike smokeProc's lossy capture, sends block so no line is dropped.
type feedProc struct {
	cmd   *exec.Cmd
	lines chan string
}

func startFeedConsumer(t *testing.T, bin string, args ...string) *feedProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s %v: %v", bin, args, err)
	}
	p := &feedProc{cmd: cmd, lines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
			for range p.lines { // unblock the scanner goroutine
			}
		}
	})
	return p
}

// next returns the consumer's next stdout line matching re (capture
// groups), failing the test on exit or timeout.
func (p *feedProc) next(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("consumer exited before printing %s", re)
			}
			if m := re.FindStringSubmatch(line); m != nil {
				return m
			}
			t.Logf("consumer (skipped): %s", line)
		case <-deadline:
			t.Fatalf("timed out waiting for %s", re)
		}
	}
}

var (
	feedSnapshotRE = regexp.MustCompile(`^snapshot cursor=(\S+) entries=(\d+) hash=(\S+)$`)
	feedChangeRE   = regexp.MustCompile(`^change cursor=(\S+) branch=(\S+) kind=report hash=(\S+)$`)
)

// cacheHash polls the server's /cache and hashes it exactly the way the
// consumer hashes its materialized state (FNV-64a over a re-serialized
// IndexedCache dump), so push and pull views are comparable by string.
func cacheHash(t *testing.T, httpAddr string) (string, int) {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/cache?branch=")
	if err != nil {
		t.Fatalf("GET /cache: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cache: %d %v", resp.StatusCode, err)
	}
	state, err := depot.LoadDump(body, branch.ID{})
	if err != nil {
		t.Fatalf("parse /cache: %v", err)
	}
	h := fnv.New64a()
	h.Write(state.Dump())
	return fmt.Sprintf("%016x", h.Sum64()), state.Count()
}

func TestFeedSmoke(t *testing.T) {
	if os.Getenv("INCA_FEED_SMOKE") == "" {
		t.Skip("set INCA_FEED_SMOKE=1 (make feed-smoke) to run the multi-process smoke test")
	}
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "inca-server")
	consumerBin := filepath.Join(dir, "inca-consumer")
	for bin, pkg := range map[string]string{serverBin: "./cmd/inca-server", consumerBin: "./cmd/inca-consumer"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			t.Fatalf("build %s: %v", pkg, err)
		}
	}

	server := startSmokeProc(t, serverBin, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	wireAddr := server.expectLine(t, wireAddrRE)
	httpAddr := server.expectLine(t, httpAddrRE)

	client := wire.NewBatchClient(wireAddr, wire.BatchOptions{FlushInterval: 10 * time.Millisecond})
	defer client.Close()
	data := loadgen.MustPremadeReport(smokeReportLen)
	branchFor := func(i int) string { return fmt.Sprintf("probe=p00,site=s%02d,vo=tg", i) }
	storeRange := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			client.Enqueue(&wire.Message{Branch: branchFor(i), Hostname: "smoke", Report: data})
		}
		if err := client.Drain(); err != nil {
			t.Fatalf("drain stores [%d,%d): %v", from, to, err)
		}
	}

	// Consumer A subscribes to the empty depot: its catch-up snapshot has
	// nothing in it.
	consumerA := startFeedConsumer(t, consumerBin, "-server", "http://"+httpAddr, "-subscribe")
	snapA := consumerA.next(t, feedSnapshotRE)
	if snapA[2] != "0" {
		t.Fatalf("consumer A first snapshot has %s entries, want 0", snapA[2])
	}

	// Ten generations stream in; A must observe each exactly once, with a
	// distinct cursor per event.
	storeRange(0, 10)
	seenA := make(map[string]int)
	cursors := make(map[string]int)
	var lastCursor, lastHashA string
	for i := 0; i < 10; i++ {
		m := consumerA.next(t, feedChangeRE)
		cursors[m[1]]++
		seenA[m[2]]++
		lastCursor, lastHashA = m[1], m[3]
	}
	for i := 0; i < 10; i++ {
		if seenA[branchFor(i)] != 1 {
			t.Fatalf("consumer A observed %q %d times, want exactly once (saw %v)", branchFor(i), seenA[branchFor(i)], seenA)
		}
	}
	if len(cursors) != 10 {
		t.Fatalf("consumer A saw %d distinct cursors across 10 changes", len(cursors))
	}
	if wantHash, _ := cacheHash(t, httpAddr); lastHashA != wantHash {
		t.Fatalf("consumer A materialized hash %s != polled /cache hash %s", lastHashA, wantHash)
	}

	// Kill A at its last cursor; ten more generations land unobserved.
	if err := consumerA.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill consumer A: %v", err)
	}
	consumerA.cmd.Wait()
	storeRange(10, 20)

	// Consumer B resumes from A's cursor. The cursor is ten generations
	// stale, so the feed must hand it one catch-up snapshot carrying all
	// twenty branches — the missed generations arrive as state, never as
	// a gap.
	wantHash20, wantCount20 := cacheHash(t, httpAddr)
	if wantCount20 != 20 {
		t.Fatalf("server cache has %d entries before resume, want 20", wantCount20)
	}
	consumerB := startFeedConsumer(t, consumerBin, "-server", "http://"+httpAddr, "-subscribe", "-cursor", lastCursor)
	snapB := consumerB.next(t, feedSnapshotRE)
	if snapB[2] != "20" {
		t.Fatalf("consumer B catch-up snapshot has %s entries, want 20", snapB[2])
	}
	if snapB[3] != wantHash20 {
		t.Fatalf("consumer B snapshot hash %s != polled /cache hash %s", snapB[3], wantHash20)
	}
	if snapB[1] == lastCursor {
		t.Fatal("consumer B's snapshot cursor did not advance past the stale resume cursor")
	}

	// Five live generations; B observes each exactly once, and none of
	// its cursors replays one A already consumed.
	storeRange(20, 25)
	seenB := make(map[string]int)
	var lastHashB string
	for i := 0; i < 5; i++ {
		m := consumerB.next(t, feedChangeRE)
		if cursors[m[1]] != 0 {
			t.Fatalf("consumer B replayed cursor %s that A already observed", m[1])
		}
		seenB[m[2]]++
		lastHashB = m[3]
	}
	for i := 20; i < 25; i++ {
		if seenB[branchFor(i)] != 1 {
			t.Fatalf("consumer B observed %q %d times, want exactly once (saw %v)", branchFor(i), seenB[branchFor(i)], seenB)
		}
	}

	// The pushed view converged on the polled one: B's materialized state
	// hashes identically to the server's /cache with all 25 generations.
	wantHash25, wantCount25 := cacheHash(t, httpAddr)
	if wantCount25 != 25 {
		t.Fatalf("server cache has %d entries at the end, want 25", wantCount25)
	}
	if lastHashB != wantHash25 {
		t.Fatalf("consumer B final hash %s != polled /cache hash %s", lastHashB, wantHash25)
	}
}

package inca_test

// Multi-process storage smoke test (DESIGN.md §5f): a real -storage disk
// inca-server is killed with SIGKILL mid-stream — once after a clean drain
// (every report acknowledged) and once with writes still in flight — and
// restarted over the same data directory. The test asserts that no
// acknowledged report or archive is lost across the crash, that a torn
// WAL tail (garbage appended to the live segment) is truncated rather
// than fatal, and that a graceful shutdown folds the WAL into a
// checkpoint the next start restores from.
//
// The test builds and spawns the inca-server binary, so it is gated
// behind INCA_STORAGE_SMOKE=1 and run by `make storage-smoke` (part of
// `make check`) rather than on every plain `go test ./...`.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"inca/internal/experiments"
	"inca/internal/loadgen"
	"inca/internal/wire"
)

var (
	diskDepotRE  = regexp.MustCompile(`disk depot .*: \d+ cached entries, (\d+) archives, \d+ policies`)
	checkpointRE = regexp.MustCompile(`(depot checkpoint written)`)
	statsArchRE  = regexp.MustCompile(`archives="(\d+)"`)
)

func TestStorageSmoke(t *testing.T) {
	if os.Getenv("INCA_STORAGE_SMOKE") == "" {
		t.Skip("set INCA_STORAGE_SMOKE=1 (make storage-smoke) to run the multi-process smoke test")
	}
	bin := buildSmokeBinary(t, "inca-server")
	dataDir := filepath.Join(t.TempDir(), "depot")
	serverArgs := []string{
		"-storage", "disk", "-data", dataDir, "-checkpoint", "0",
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0",
	}

	// --- Generation 1: drain (ack) a batch, then SIGKILL. -------------
	srv := spawn(t, bin, serverArgs...)
	banner(t, srv, diskDepotRE)
	wireAddr := banner(t, srv, experiments.WireAddrRE)
	httpAddr := banner(t, srv, experiments.HTTPAddrRE)

	// An archival policy matching the synthetic reports, so ingest also
	// exercises the paged RRD write path, not just the WAL.
	policyXML := `<archivalPolicy name="smoke-sample" prefix="vo=smoke"` +
		` path="value,statistic=sample" step="1m" granularity="2" history="24h"/>`
	resp, err := http.Post("http://"+httpAddr+"/policy", "text/xml", strings.NewReader(policyXML))
	if err != nil {
		t.Fatalf("POST /policy: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /policy: %d", resp.StatusCode)
	}

	const acked = 40
	data := loadgen.MustPremadeReport(smokeReportLen)
	client := wire.NewBatchClient(wireAddr, wire.BatchOptions{FlushInterval: 10 * time.Millisecond})
	for i := 0; i < acked; i++ {
		client.Enqueue(&wire.Message{
			Branch:   fmt.Sprintf("probe=p%02d,vo=smoke", i),
			Hostname: "smoke", Report: data,
		})
	}
	if err := client.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	client.Close()
	// Every one of those stores was acknowledged over the wire. Kill the
	// process with no chance to flush or checkpoint.
	if err := srv.Cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	srv.Cmd.Wait()

	// Simulate a torn final append: garbage on the live WAL segment tail.
	seg := newestWALSegment(t, dataDir)
	tornSize := appendGarbage(t, seg, 137)

	// --- Generation 2: recover, verify nothing acked was lost. --------
	srv = spawn(t, bin, serverArgs...)
	archives := banner(t, srv, diskDepotRE)
	wireAddr = banner(t, srv, experiments.WireAddrRE)
	httpAddr = banner(t, srv, experiments.HTTPAddrRE)
	if got := storedReportCount(t, httpAddr); got != acked {
		t.Fatalf("after SIGKILL + torn tail: recovered %d of %d acked reports", got, acked)
	}
	if n, _ := strconv.Atoi(archives); n != acked {
		t.Fatalf("after SIGKILL: recovered %s archives, want %d (one per branch)", archives, acked)
	}
	if fi, err := os.Stat(seg); err != nil {
		t.Fatalf("stat %s: %v", seg, err)
	} else if fi.Size() >= tornSize {
		t.Fatalf("torn tail not truncated: %s still %d bytes (was %d)", seg, fi.Size(), tornSize)
	}

	// --- Generation 2 continued: SIGKILL mid-stream. ------------------
	// Reports are enqueued with no drain; whatever was acknowledged before
	// the kill must survive, and the half-written tail must not poison
	// recovery. The exact survivor count is timing-dependent by design.
	client = wire.NewBatchClient(wireAddr, wire.BatchOptions{FlushInterval: time.Millisecond})
	for i := 0; i < 200; i++ {
		client.Enqueue(&wire.Message{
			Branch:   fmt.Sprintf("probe=x%03d,vo=smoke", i),
			Hostname: "smoke", Report: data,
		})
	}
	time.Sleep(30 * time.Millisecond) // let some batches land mid-write
	if err := srv.Cmd.Process.Kill(); err != nil {
		t.Fatalf("kill mid-stream: %v", err)
	}
	srv.Cmd.Wait()
	client.Close()

	// --- Generation 3: recover again, then shut down gracefully. ------
	srv = spawn(t, bin, serverArgs...)
	banner(t, srv, diskDepotRE)
	banner(t, srv, experiments.WireAddrRE)
	httpAddr = banner(t, srv, experiments.HTTPAddrRE)
	got := storedReportCount(t, httpAddr)
	if got < acked {
		t.Fatalf("after mid-stream SIGKILL: %d reports, want at least the %d previously acked", got, acked)
	}
	t.Logf("mid-stream kill: %d of up to %d extra reports survived", got-acked, 200)
	document := fetchCacheDocument(t, httpAddr)

	if err := srv.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	banner(t, srv, checkpointRE)
	srv.Cmd.Wait()

	// --- Generation 4: start from the checkpoint alone. ---------------
	srv = spawn(t, bin, serverArgs...)
	banner(t, srv, diskDepotRE)
	banner(t, srv, experiments.WireAddrRE)
	httpAddr = banner(t, srv, experiments.HTTPAddrRE)
	if again := storedReportCount(t, httpAddr); again != got {
		t.Fatalf("checkpoint restart: %d reports, want %d", again, got)
	}
	if a := fetchStatsArchives(t, httpAddr); a < acked {
		t.Fatalf("checkpoint restart: %d archives, want >= %d", a, acked)
	}
	// The checkpoint is restored into the cache the server was started with
	// (no endpoint names its kind; internal/depot's
	// TestRestoreKeepsConfiguredCache does): the document it serves is the
	// one it served before the restart, byte for byte.
	if again := fetchCacheDocument(t, httpAddr); !bytes.Equal(again, document) {
		t.Fatalf("checkpoint restart: /cache changed (%d bytes, was %d)", len(again), len(document))
	}
}

// fetchCacheDocument returns the whole cache document, GET /cache.
func fetchCacheDocument(t *testing.T, httpAddr string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/cache")
	if err != nil {
		t.Fatalf("GET /cache: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cache: status %d, %v", resp.StatusCode, err)
	}
	return body
}

// newestWALSegment returns the path of the highest-numbered WAL segment.
func newestWALSegment(t *testing.T, dataDir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dataDir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments under %s (err=%v)", dataDir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// appendGarbage writes n bytes of junk to the end of path and returns the
// resulting size.
func appendGarbage(t *testing.T, path string, n int) int64 {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	junk := make([]byte, n)
	for i := range junk {
		junk[i] = 0x5a
	}
	if _, err := f.Write(junk); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	f.Close()
	return fi.Size()
}

func storedReportCount(t *testing.T, httpAddr string) int {
	t.Helper()
	var got int
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err = fetchStoredCount("http://" + httpAddr + "/reports")
		if err == nil {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /reports: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fetchStatsArchives(t *testing.T, httpAddr string) int {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 64<<10)
	n, _ := resp.Body.Read(buf)
	m := statsArchRE.FindStringSubmatch(string(buf[:n]))
	if m == nil {
		t.Fatalf("no Archives attribute in /stats response: %s", buf[:n])
	}
	v, _ := strconv.Atoi(m[1])
	return v
}

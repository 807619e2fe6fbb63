package inca_test

// Multi-process federation smoke test (DESIGN.md §5c): a real -federate
// router in front of two real shard processes over real TCP. One shard is
// killed mid-stream, the topology drops it via /federation/leave, and the
// test asserts every report the router accepted is queryable through the
// scatter-gather tier afterwards — the custody chain (router ack →
// per-shard batch client → harvest on leave → re-route) loses nothing.
//
// The test builds and spawns the inca-server binary, so it is gated
// behind INCA_FEDERATION_SMOKE=1 and run by `make federation-smoke`
// (part of `make check`) rather than on every plain `go test ./...`.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/experiments"
	"inca/internal/federation"
	"inca/internal/loadgen"
	"inca/internal/wire"
)

// smokeReportLen is the size of the report the smokes stream.
const smokeReportLen = 851

// buildSmokeBinary compiles cmd/<name> for one test.
func buildSmokeBinary(t *testing.T, name string) string {
	t.Helper()
	bin, err := experiments.BuildBinary(t.TempDir(), name)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// spawn starts bin and stops it when the test ends.
func spawn(t *testing.T, bin string, args ...string) *experiments.Proc {
	t.Helper()
	p, err := experiments.Start(bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

// banner returns the first capture of p's next stdout line matching re.
func banner(t *testing.T, p *experiments.Proc, re *regexp.Regexp) string {
	t.Helper()
	v, err := p.Expect(re, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFederationSmoke(t *testing.T) {
	if os.Getenv("INCA_FEDERATION_SMOKE") == "" {
		t.Skip("set INCA_FEDERATION_SMOKE=1 (make federation-smoke) to run the multi-process smoke test")
	}
	bin := buildSmokeBinary(t, "inca-server")

	// Two shard depots, each a full inca-server on ephemeral ports.
	shardA := spawn(t, bin, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	wireA := banner(t, shardA, experiments.WireAddrRE)
	httpA := banner(t, shardA, experiments.HTTPAddrRE)
	shardB := spawn(t, bin, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	wireB := banner(t, shardB, experiments.WireAddrRE)
	httpB := banner(t, shardB, experiments.HTTPAddrRE)

	// The federation router in front of them, a third process.
	router := spawn(t, bin,
		"-federate", fmt.Sprintf("%s/%s,%s/%s", wireA, httpA, wireB, httpB),
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	routerWire := banner(t, router, experiments.RouterWireRE)
	routerHTTP := banner(t, router, experiments.RouterHTTPRE)

	// Mirror the router's placement locally to know which shard owns what.
	ring := federation.NewRing([]string{wireA, wireB}, federation.RingOptions{})
	var ownedA, ownedB []branch.ID
	for site := 0; site < 30; site++ {
		for probe := 0; probe < 3; probe++ {
			id := branch.MustParse(fmt.Sprintf("probe=p%02d,site=s%02d,vo=tg", probe, site))
			if ring.Owner(id) == wireA {
				ownedA = append(ownedA, id)
			} else {
				ownedB = append(ownedB, id)
			}
		}
	}
	if len(ownedA) == 0 || len(ownedB) == 0 {
		t.Fatalf("degenerate placement: %d/%d branches on shard A/B", len(ownedA), len(ownedB))
	}

	client := wire.NewBatchClient(routerWire, wire.BatchOptions{FlushInterval: 10 * time.Millisecond})
	defer client.Close()
	data := loadgen.MustPremadeReport(smokeReportLen)
	send := func(ids []branch.ID) {
		for _, id := range ids {
			client.Enqueue(&wire.Message{Branch: id.String(), Hostname: "smoke", Report: data})
		}
	}

	// Phase 1: stream shard A's share and let it settle end to end.
	send(ownedA)
	if err := client.Drain(); err != nil {
		t.Fatalf("drain phase 1: %v", err)
	}

	// Kill shard B mid-stream, then keep streaming its share. The router
	// still owns those ranges, so the messages pile up in B's batch client
	// — written but never acknowledged, or queued behind the dead
	// connection.
	if err := shardB.Cmd.Process.Kill(); err != nil {
		t.Fatalf("kill shard B: %v", err)
	}
	shardB.Cmd.Wait()
	send(ownedB)
	if err := client.Drain(); err != nil {
		t.Fatalf("drain phase 2: %v", err)
	}

	// Drop B from the topology. Leave harvests every message queued toward
	// the dead shard and re-enqueues it through the shrunken ring.
	resp, err := http.Post("http://"+routerHTTP+"/federation/leave?shard="+wireB, "", nil)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: %d %s", resp.StatusCode, body)
	}
	t.Logf("leave: %s", body)

	// Every accepted report must be visible through the scatter-gather
	// tier. Delivery of the re-routed messages is asynchronous, so poll.
	want := len(ownedA) + len(ownedB)
	deadline := time.Now().Add(20 * time.Second)
	for {
		got, err := fetchStoredCount("http://" + routerHTTP + "/reports")
		if err == nil && got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after shard kill + leave: federated /reports has %d of %d reports (err=%v)", got, want, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fetchStoredCount(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	stored, err := federation.ParseReports(body)
	if err != nil {
		return 0, err
	}
	return len(stored), nil
}

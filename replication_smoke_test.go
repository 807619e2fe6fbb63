package inca_test

// Multi-process replication smoke test (DESIGN.md §5c): a -federate
// router with a follower behind one shard (wire/http=followerWire/
// followerHTTP in the shard list), all real processes
// over real TCP. The test streams reports through the router, captures
// the federated /reports body, checks that the follower's own /reports
// holds exactly the shard's slice, SIGKILLs the replicated shard's primary,
// promotes the follower via /federation/leave, and asserts the federated
// /reports body comes back byte-identical — zero stored-report loss
// across the failover — with a clean custody ledger on the router's
// /metrics.
//
// Gated behind INCA_REPLICATION_SMOKE=1 and run by `make
// replication-smoke` (part of `make check`).

import (
	"bytes"
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

var (
	replicationRE = regexp.MustCompile(`replication: (\d+) of \d+ shards have followers`)
	promotedRE    = regexp.MustCompile(`^promoted follower `)
)

func TestReplicationSmoke(t *testing.T) {
	if os.Getenv("INCA_REPLICATION_SMOKE") == "" {
		t.Skip("set INCA_REPLICATION_SMOKE=1 (make replication-smoke) to run the multi-process smoke test")
	}
	bin := buildSmokeBinary(t, "inca-server")

	// Two primaries plus a follower for shard B — the shard we will kill.
	shardA := spawn(t, bin, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	wireA := banner(t, shardA, experiments.WireAddrRE)
	httpA := banner(t, shardA, experiments.HTTPAddrRE)
	shardB := spawn(t, bin, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	wireB := banner(t, shardB, experiments.WireAddrRE)
	httpB := banner(t, shardB, experiments.HTTPAddrRE)
	follower := spawn(t, bin, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	wireF := banner(t, follower, experiments.WireAddrRE)
	httpF := banner(t, follower, experiments.HTTPAddrRE)

	router := spawn(t, bin,
		"-federate", fmt.Sprintf("%s/%s,%s/%s=%s/%s", wireA, httpA, wireB, httpB, wireF, httpF),
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	routerWire := banner(t, router, experiments.RouterWireRE)
	if n := banner(t, router, replicationRE); n != "1" {
		t.Fatalf("router reports %s replicated shards, want 1", n)
	}
	routerHTTP := banner(t, router, experiments.RouterHTTPRE)

	// Mirror the router's placement to know shard B's slice.
	ring := federation.NewRing([]string{wireA, wireB}, federation.RingOptions{})
	var all, ownedB []branch.ID
	for site := 0; site < 30; site++ {
		for probe := 0; probe < 3; probe++ {
			id := branch.MustParse(fmt.Sprintf("probe=p%02d,site=s%02d,vo=tg", probe, site))
			all = append(all, id)
			if ring.Owner(id) == wireB {
				ownedB = append(ownedB, id)
			}
		}
	}
	if len(ownedB) == 0 || len(ownedB) == len(all) {
		t.Fatalf("degenerate placement: shard B owns %d of %d branches", len(ownedB), len(all))
	}

	client := wire.NewBatchClient(routerWire, wire.BatchOptions{FlushInterval: 10 * time.Millisecond})
	defer client.Close()
	data := loadgen.MustPremadeReport(smokeReportLen)
	for _, id := range all {
		client.Enqueue(&wire.Message{Branch: id.String(), Hostname: "smoke", Report: data})
	}
	if err := client.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Wait for every report to be queryable, then pin the pre-kill body.
	// Reads come from the primaries, so this body says nothing of the
	// follower.
	reportsURL := "http://" + routerHTTP + "/reports"
	want := len(all)
	deadline := time.Now().Add(20 * time.Second)
	var preKill []byte
	for {
		body, got, err := fetchReports(reportsURL)
		if err == nil && got == want {
			preKill = body
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pre-kill: federated /reports has %d of %d reports (err=%v)", got, want, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The tee: the follower's own /reports holds exactly shard B's slice.
	wantF := make(map[string]bool, len(ownedB))
	for _, id := range ownedB {
		wantF[id.String()] = true
	}
	followerURL := "http://" + httpF + "/reports?branch="
	for {
		body, got, err := fetchReports(followerURL)
		if err == nil && got == len(ownedB) {
			stored, _ := federation.ParseReports(body)
			for _, st := range stored {
				if !wantF[st.ID.String()] {
					t.Fatalf("follower holds %s, outside shard B's slice", st.ID)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pre-kill: follower /reports has %d of %d reports (err=%v)", got, len(ownedB), err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// SIGKILL shard B's primary — no drain, no goodbye — then keep
	// streaming its slice so messages pile up toward the dead process.
	if err := shardB.Cmd.Process.Kill(); err != nil {
		t.Fatalf("kill shard B: %v", err)
	}
	shardB.Cmd.Wait()
	for _, id := range ownedB {
		client.Enqueue(&wire.Message{Branch: id.String(), Hostname: "smoke", Report: data})
	}
	if err := client.Drain(); err != nil {
		t.Fatalf("drain after kill: %v", err)
	}

	// /federation/leave sees the dead shard has a follower and promotes it
	// instead of shrinking the ring: no ranges move, the follower takes
	// over the slice, and the harvested queue is re-enqueued toward it.
	resp, err := http.Post("http://"+routerHTTP+"/federation/leave?shard="+wireB, "", nil)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: %d %s", resp.StatusCode, body)
	}
	if !promotedRE.Match(body) {
		t.Fatalf("leave of a replicated shard did not promote: %s", body)
	}
	t.Logf("leave: %s", body)

	// The federated /reports must converge back to the exact pre-kill
	// body: same reports, same bytes, nothing lost with the primary.
	deadline = time.Now().Add(20 * time.Second)
	for {
		got, _, err := fetchReports(reportsURL)
		if err == nil && bytes.Equal(got, preKill) {
			break
		}
		if time.Now().After(deadline) {
			n := -1
			if err == nil {
				if stored, perr := federation.ParseReports(got); perr == nil {
					n = len(stored)
				}
			}
			t.Fatalf("post-promotion /reports never matched the pre-kill body (%d reports, err=%v)", n, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The custody ledger must reconcile with zero silent drops. Each
	// family is summed over every shard client the router has built, the
	// promoted-away primary's included.
	m, err := loadgen.ScrapeMetrics(nil, "http://"+routerHTTP+"/metrics")
	if err != nil {
		t.Fatalf("router metrics: %v", err)
	}
	sent := float64(len(all) + len(ownedB))
	if got := m["inca_federation_routed_total"]; got != sent {
		t.Errorf("inca_federation_routed_total = %v, want %v (every send was acked)", got, sent)
	}
	for _, name := range []string{
		"inca_federation_unroutable_total",
		"inca_federation_reroute_dropped_total",
		"inca_wire_batch_dropped_total",
	} {
		if v, ok := m[name]; !ok || v != 0 {
			t.Errorf("silent loss: %s = %v (present %v), want 0", name, v, ok)
		}
	}
	if got := m["inca_federation_promotions_total"]; got != 1 {
		t.Errorf("inca_federation_promotions_total = %v, want 1", got)
	}
}

func fetchReports(url string) ([]byte, int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	stored, err := federation.ParseReports(body)
	if err != nil {
		return nil, 0, err
	}
	return body, len(stored), nil
}

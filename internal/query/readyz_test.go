package query

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/federation"
)

// readyz returns the status and body of base's /readyz.
func readyz(t *testing.T, base string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// awaitReadyz polls base's /readyz until it answers want with a body
// holding reason.
func awaitReadyz(t *testing.T, base string, want int, reason string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body := readyz(t, base)
		if status == want && strings.Contains(body, reason) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d %q after 10s, want %d %q", status, body, want, reason)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReadyz(t *testing.T) {
	t.Run("memory depot", func(t *testing.T) {
		ts, _ := newIndexedServer(t)
		if status, body := readyz(t, ts.URL); status != http.StatusOK {
			t.Fatalf("memory depot: %d %q", status, body)
		}
	})

	t.Run("disk depot reopened", func(t *testing.T) {
		dir := t.TempDir()
		d, err := depot.OpenDisk(depot.DiskOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Store(branch.MustParse("probe=p,site=s"), []byte("<r><v>1</v></r>")); err != nil {
			t.Fatal(err)
		}
		d.Close()
		d, err = depot.OpenDisk(depot.DiskOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		if n := d.Cache().Count(); n != 1 {
			t.Fatalf("reopened depot holds %d reports, want 1", n)
		}
		ts := httptest.NewServer(NewServer(d).Handler())
		t.Cleanup(ts.Close)
		if status, body := readyz(t, ts.URL); status != http.StatusOK {
			t.Fatalf("reopened disk depot: %d %q", status, body)
		}
	})

	t.Run("router", func(t *testing.T) {
		var shards []federation.Shard
		var servers []*httptest.Server
		var starts []func()
		for i := 0; i < 2; i++ {
			s, start := unstartedFeedShard(t)
			shards = append(shards, federation.Shard{Wire: fmt.Sprintf("shard%d", i), HTTP: s.ts.Listener.Addr().String()})
			servers = append(servers, s.ts)
			starts = append(starts, start)
		}
		router, err := federation.NewRouter(shards, federation.RouterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tier := NewFederated(router, FederatedOptions{})
		fed := httptest.NewServer(tier.Handler())
		t.Cleanup(fed.Close)

		// Both shards are bound but silent: 503, naming one of them.
		if status, body := readyz(t, fed.URL); status != http.StatusServiceUnavailable || !strings.Contains(body, "shard") {
			t.Fatalf("router before its shards serve: %d %q", status, body)
		}
		for _, start := range starts {
			start()
		}
		awaitReadyz(t, fed.URL, http.StatusOK, "ready")

		// One shard goes away, and /readyz names it.
		dead := servers[0]
		dead.Listener.Close()
		dead.CloseClientConnections()
		dead.Close()
		awaitReadyz(t, fed.URL, http.StatusServiceUnavailable, "shard0")
	})

	t.Run("router after join", func(t *testing.T) {
		tf := newFeedFederation(t, 2)
		if status, body := readyz(t, tf.fed.URL); status != http.StatusOK {
			t.Fatalf("federation before join: %d %q", status, body)
		}
		joining, start := unstartedFeedShard(t)
		resp, err := http.Post(tf.fed.URL+"/federation/join?shard="+url.QueryEscape("shard9/"+joining.ts.Listener.Addr().String()), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join: %s", resp.Status)
		}
		// The old shards answer; the joined one cannot while it does not
		// serve.
		awaitReadyz(t, tf.fed.URL, http.StatusServiceUnavailable, "shard9")
		start()
		awaitReadyz(t, tf.fed.URL, http.StatusOK, "ready")
	})

	t.Run("router after failed catch-up", func(t *testing.T) {
		tf := newFeedFederation(t, 2)
		env := sampleEnvelope(t, "probe=p00,site=s00,vo=tg", t0, 1)
		tf.store(t, env)
		id, err := envelopeAddress(env)
		if err != nil {
			t.Fatal(err)
		}
		// A follower whose querying interface refuses connections: the
		// attach succeeds, the catch-up copy cannot.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		refused := ln.Addr().String()
		ln.Close()
		resp, err := http.Post(tf.fed.URL+"/federation/replicate?catchup=1&shard="+tf.router.Ring().Owner(id)+
			"&follower="+url.QueryEscape(refused+"/"+refused), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("catch-up to a refusing follower: %s %s, want 502", resp.Status, body)
		}
		// The attach changed nothing a reader sees.
		awaitReadyz(t, tf.fed.URL, http.StatusOK, "ready")
	})
}

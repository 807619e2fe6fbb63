package query

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inca/internal/depot"
	"inca/internal/federation"
)

// TestFederatedScatterKeepsConnectionsAlive: sixteen concurrent readers
// hold sixteen connections per shard and keep reusing them. On
// http.DefaultTransport's two idle connections per host, fourteen of every
// sixteen were closed after each scatter and dialled again for the next.
func TestFederatedScatterKeepsConnectionsAlive(t *testing.T) {
	const readers, rounds = 16, 20
	var dials [2]atomic.Int64
	shards := make([]federation.Shard, len(dials))
	for i := range shards {
		i := i
		d := depot.New(depot.NewIndexedCache())
		id := fmt.Sprintf("probe=p,site=s%d,vo=tg", i)
		if _, err := d.StoreEnvelope(sampleEnvelope(t, id, t0, 1)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(NewServer(d).Handler())
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials[i].Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		shards[i] = federation.Shard{Wire: fmt.Sprintf("shard%d", i), HTTP: ts.URL}
	}
	router, err := federation.NewRouter(shards, federation.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewFederated(router, FederatedOptions{Timeout: 10 * time.Second})
	t.Cleanup(tier.Close)
	h := tier.Handler()

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cache", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("scatter answered %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A dial racing a connection just handed back can leave a reader with a
	// spare, so allow a second connection each; the parent code dialled for
	// most of the 320 requests a shard served.
	for i := range dials {
		if n := dials[i].Load(); n > 2*readers {
			t.Errorf("shard %d accepted %d connections for %d requests from %d readers", i, n, readers*rounds, readers)
		}
	}
}

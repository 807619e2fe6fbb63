package experiments

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/loadgen"
	"inca/internal/query"
)

// FeedOptions configures the push-vs-pull consumer scaling experiment
// (DESIGN.md §5g).
type FeedOptions struct {
	// Consumers are the population sizes to sweep (default 1, 16, 256,
	// 1024 — the DiPerF-style scaling axis).
	Consumers []int
	// Window is how long each measured cell runs (default 3s).
	Window time.Duration
	// StoreInterval is the writer's gap between report stores
	// (default 100ms: a busy depot, ~10 changes/sec).
	StoreInterval time.Duration
	// PollInterval is each poller's conditional-GET period (default
	// 200ms — an aggressive dashboard refresh).
	PollInterval time.Duration
}

func (o *FeedOptions) fill() {
	if len(o.Consumers) == 0 {
		o.Consumers = []int{1, 16, 256, 1024}
	}
	if o.Window <= 0 {
		o.Window = 5 * time.Second
	}
	if o.StoreInterval <= 0 {
		o.StoreInterval = 100 * time.Millisecond
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 200 * time.Millisecond
	}
}

// storeClock records when each branch was last stored, so a consumer
// observing a change can compute its propagation delay. Times are
// recorded before the store commits: a receiver can therefore never see
// a change whose store time is missing, and the measured delay includes
// the commit itself (identically for both modes).
type storeClock struct {
	mu  sync.RWMutex
	at  map[string]time.Time
	seq []time.Time // every store's time, in commit order
}

func (sc *storeClock) mark(id string) {
	sc.mu.Lock()
	now := time.Now()
	sc.at[id] = now
	sc.seq = append(sc.seq, now)
	sc.mu.Unlock()
}

func (sc *storeClock) since(id string) (time.Duration, bool) {
	sc.mu.RLock()
	t, ok := sc.at[id]
	sc.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return time.Since(t), true
}

// newSince returns the store times recorded after index from, plus the
// new high-water index — how a poller attributes one changed body to
// every generation it newly observed.
func (sc *storeClock) newSince(from int) ([]time.Time, int) {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	if from >= len(sc.seq) {
		return nil, from
	}
	out := make([]time.Time, len(sc.seq)-from)
	copy(out, sc.seq[from:])
	return out, len(sc.seq)
}

// feedCellResult is one measured (mode, consumers) cell.
type feedCellResult struct {
	Requests      int64   // query-tier HTTP requests, setup included
	ReqPerSec     float64 // Requests normalized by the window
	Deliveries    int64   // change observations across all consumers
	DelivPerSec   float64
	P50, P95, P99 float64 // propagation, microseconds
	Demotions     int64   // subscribers demoted to a fresh snapshot
}

// feedCell runs one population of consumers — "poll" (conditional GETs)
// or "feed" (SSE subscriptions) — against a live depot server over real
// TCP while a writer stores reports at a steady rate, and measures the
// query tier's request load and the store-to-observe propagation delay.
func feedCell(mode string, n int, opt FeedOptions) (feedCellResult, error) {
	d := depot.New(depot.NewIndexedCache())
	defer d.Close()
	sf := query.NewFeed(d, query.FeedOptions{})
	defer sf.Close()
	srv := query.NewServer(d)
	srv.Feed = sf

	var requests atomic.Int64
	h := srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return feedCellResult{}, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	})}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// One shared client: pollers need a deep idle pool to avoid
	// connection churn; subscribers need no request timeout (an SSE
	// stream is a deliberately unbounded response).
	tr := &http.Transport{MaxIdleConns: 2 * n, MaxIdleConnsPerHost: 2 * n}
	defer tr.CloseIdleConnections()
	qc := query.NewClient(base)
	qc.HTTP = &http.Client{Transport: tr}

	// The working set: 64 branches cycled by the writer, so a branch
	// repeats only every ~1.6s — long past any sane propagation delay,
	// keeping the per-branch store clock unambiguous.
	ids := make([]branch.ID, 0, 64)
	for s := 0; s < 8; s++ {
		for p := 0; p < 8; p++ {
			ids = append(ids, branch.MustParse(fmt.Sprintf("probe=p%02d,site=s%02d,vo=tg", p, s)))
		}
	}
	data := loadgen.MustPremadeReport(851)
	clock := &storeClock{at: make(map[string]time.Time, len(ids))}

	var (
		deliveries atomic.Int64
		demotions  atomic.Int64
		errOnce    sync.Once
		cellErr    error
		readyWg    sync.WaitGroup
		doneWg     sync.WaitGroup
	)
	fail := func(err error) { errOnce.Do(func() { cellErr = err }) }
	lat := newLatencyTracker(n, 256)
	stop := make(chan struct{})
	var streams []*query.FeedStream

	readyWg.Add(n)
	doneWg.Add(n)
	for w := 0; w < n; w++ {
		switch mode {
		case "feed":
			fs, err := qc.FeedSubscribe("", "", "")
			if err != nil {
				close(stop)
				return feedCellResult{}, err
			}
			streams = append(streams, fs)
			go func(w int, fs *query.FeedStream) {
				defer doneWg.Done()
				ready := false
				for {
					ev, err := fs.Next()
					if err != nil {
						if !ready {
							readyWg.Done()
						}
						return // stream closed at teardown
					}
					switch ev.Type {
					case "snapshot":
						if !ready {
							ready = true
							readyWg.Done()
						} else {
							demotions.Add(1)
						}
					case "change":
						fc, cerr := ev.Change()
						if cerr != nil {
							fail(cerr)
							continue
						}
						if delay, ok := clock.since(fc.Branch); ok {
							lat.observe(w, delay)
							deliveries.Add(1)
						}
					}
				}
			}(w, fs)
		case "poll":
			go func(w int) {
				defer doneWg.Done()
				// Prime the ETag, then poll on a fixed period with a
				// per-worker phase so the population spreads across the
				// interval instead of stampeding.
				_, etag, _, err := qc.CacheConditional("", "")
				readyWg.Done()
				if err != nil {
					fail(err)
					return
				}
				phase := time.Duration(w) * opt.PollInterval / time.Duration(n)
				select {
				case <-time.After(phase):
				case <-stop:
					return
				}
				lastSeen := 0
				for {
					select {
					case <-time.After(opt.PollInterval):
					case <-stop:
						return
					}
					_, newTag, notModified, err := qc.CacheConditional("", etag)
					if err != nil {
						select {
						case <-stop:
						default:
							fail(err)
						}
						return
					}
					if !notModified && newTag != etag {
						etag = newTag
						times, high := clock.newSince(lastSeen)
						lastSeen = high
						for _, t := range times {
							lat.observe(w, time.Since(t))
						}
						deliveries.Add(int64(len(times)))
					}
				}
			}(w)
		default:
			return feedCellResult{}, fmt.Errorf("unknown consumer mode %q", mode)
		}
	}
	readyWg.Wait()

	// Every consumer is attached: run the writer for the window.
	windowStart := time.Now()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-time.After(opt.StoreInterval):
			case <-stop:
				return
			}
			id := ids[i%len(ids)]
			clock.mark(id.String())
			if _, err := d.Store(id, data); err != nil {
				fail(err)
				return
			}
		}
	}()
	time.Sleep(opt.Window)
	close(stop)
	<-writerDone
	for _, fs := range streams {
		fs.Close()
	}
	doneWg.Wait()
	window := time.Since(windowStart)

	if cellErr != nil {
		return feedCellResult{}, cellErr
	}
	p50, p95, p99 := lat.percentiles()
	return feedCellResult{
		Requests:    requests.Load(),
		ReqPerSec:   float64(requests.Load()) / window.Seconds(),
		Deliveries:  deliveries.Load(),
		DelivPerSec: float64(deliveries.Load()) / window.Seconds(),
		P50:         p50, P95: p95, P99: p99,
		Demotions: demotions.Load(),
	}, nil
}

// Feed measures push versus pull consumer scaling over real TCP: N
// conditional pollers against N /feed subscribers at growing N, plotting
// query-tier request rate and store-to-observe propagation delay —
// DiPerF-style, the service's delivered performance as the client
// population grows. The acceptance line is the request-rate column: at
// 256+ consumers the feed tier must carry ≥10x fewer requests than the
// polling tier at equal or better propagation delay.
func Feed(opt FeedOptions) Result {
	opt.fill()
	return timed("feed", "Push-scale consumers: change-feed subscribers vs conditional pollers", func(r *Result) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-6s %-10s %10s %12s %12s %12s %12s\n",
			"mode", "consumers", "req/s", "observe/s", "p50(ms)", "p95(ms)", "p99(ms)")
		for _, n := range opt.Consumers {
			var cells [2]feedCellResult
			for i, mode := range []string{"poll", "feed"} {
				cell, err := feedCell(mode, n, opt)
				if err != nil {
					r.Text = "error: " + err.Error()
					return
				}
				cells[i] = cell
				fmt.Fprintf(&sb, "%-6s %-10d %10.1f %12.1f %12.2f %12.2f %12.2f\n",
					mode, n, cell.ReqPerSec, cell.DelivPerSec, cell.P50/1e3, cell.P95/1e3, cell.P99/1e3)
				cs := cellStats{OpsPerSec: cell.DelivPerSec, P50: cell.P50, P95: cell.P95, P99: cell.P99}
				r.Metrics = append(r.Metrics, cs.metric("propagation", map[string]string{
					"mode": mode, "consumers": fmt.Sprint(n),
				}))
				r.Metrics = append(r.Metrics, Metric{
					Name:      "query-tier-requests",
					Labels:    map[string]string{"mode": mode, "consumers": fmt.Sprint(n)},
					Value:     cell.ReqPerSec,
					ValueUnit: "requests/sec",
				})
				if cell.Demotions > 0 {
					r.Metrics = append(r.Metrics, Metric{
						Name:      "demotions",
						Labels:    map[string]string{"mode": mode, "consumers": fmt.Sprint(n)},
						Value:     float64(cell.Demotions),
						ValueUnit: "snapshot-resyncs",
					})
				}
			}
			ratio := 0.0
			if cells[1].ReqPerSec > 0 {
				ratio = cells[0].ReqPerSec / cells[1].ReqPerSec
			}
			fmt.Fprintf(&sb, "%-6s %-10d %34s\n", "ratio", n, fmt.Sprintf("%.1fx fewer requests via feed", ratio))
			r.Metrics = append(r.Metrics, Metric{
				Name:      "request-reduction",
				Labels:    map[string]string{"consumers": fmt.Sprint(n)},
				Value:     ratio,
				ValueUnit: "x",
			})
		}
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			fmt.Sprintf("writer stores one 851-byte report every %s across 64 branches; each cell runs %s over real loopback TCP", opt.StoreInterval, opt.Window),
			fmt.Sprintf("pollers issue conditional GET /cache every %s (phase-spread); subscribers hold one SSE /feed stream each", opt.PollInterval),
			"req/s counts every HTTP request the query tier served, connection setup included, normalized by the measured window — the feed column is the one-time subscribe cost amortized over the window",
			"propagation is store-to-observe per generation: the clock starts as the writer commits and stops at each consumer's first observation of that generation (feed: its change event; poll: the first changed body after it)",
			"a poll landing inside the writer's commit window can claim one not-yet-visible generation early (that sample undercounts by one poll round trip, in the poll column's favor)",
			"observe/s is first observations across the whole population (DiPerF-style delivered throughput); both modes top out at consumers x generations",
		)
	})
}

// Command inca-consumer is a command-line data consumer (paper Section
// 3.3): it queries an inca-server's web-service interface for current and
// archived data, and can evaluate the cache against a service agreement to
// render a status summary.
//
//	inca-consumer -server http://127.0.0.1:8080 -action stats
//	inca-consumer -server http://127.0.0.1:8080 -action cache -branch site=siteA,vo=samplegrid
//	inca-consumer -server http://127.0.0.1:8080 -action cache -branch site=siteA,vo=samplegrid -watch 5s
//	inca-consumer -server http://127.0.0.1:8080 -action graph -branch ... -policy summary-percent
//	inca-consumer -server http://127.0.0.1:8080 -action summary -agreement agreement.xml
//	inca-consumer -server http://127.0.0.1:8080 -subscribe -branch site=siteA,vo=samplegrid
//
// With -watch the cache and reports actions poll with conditional
// requests: unchanged data costs a 304 Not Modified (no body transfer,
// no cache scan on the server), and a fresh body is printed only when
// the depot's generation has moved.
//
// With -subscribe the consumer flips from pull to push: it opens the
// server's /feed stream, catches up from a snapshot, and then receives
// only changes — reconnecting with -cursor (or the last cursor it saw)
// resumes without re-transferring an unchanged subtree.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"time"

	"inca/internal/agreement"
	"inca/internal/branch"
	"inca/internal/consumer"
	"inca/internal/depot"
	"inca/internal/query"
	"inca/internal/rrd"
)

func main() {
	var (
		server    = flag.String("server", "http://127.0.0.1:8080", "inca-server querying interface URL")
		action    = flag.String("action", "stats", "stats | cache | reports | archive | graph | summary")
		branchID  = flag.String("branch", "", "branch identifier (empty = whole cache)")
		policy    = flag.String("policy", "", "archival policy name (archive/graph)")
		hours     = flag.Int("hours", 24, "history window for archive/graph")
		agreeFile = flag.String("agreement", "", "service agreement XML for -action summary (default: built-in TeraGrid agreement)")
		watch     = flag.Duration("watch", 0, "poll interval for cache/reports using ETag revalidation (0 = fetch once)")
		watchMax  = flag.Duration("watch-max", 0, "back off toward this interval while polls keep returning 304 (0 = 8x the -watch interval); any change resets to -watch")
		subscribe = flag.Bool("subscribe", false, "subscribe to the server's change feed (/feed) and print each change as it lands")
		cursor    = flag.String("cursor", "", "resume the -subscribe stream from this cursor (empty = fresh snapshot)")
	)
	flag.Parse()
	c := query.NewClient(*server)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	end := time.Now().UTC()
	start := end.Add(-time.Duration(*hours) * time.Hour)

	if *subscribe {
		subscribeFeed(c, *branchID, *cursor, fail)
		return
	}

	switch *action {
	case "stats":
		st, err := c.Stats()
		if err != nil {
			fail(err)
		}
		fmt.Printf("reports received: %d (%d bytes)\ncache: %d entries, %d bytes\narchives: %d\n",
			st.Received, st.Bytes, st.CacheCount, st.CacheSize, st.Archives)
	case "cache":
		if *watch > 0 {
			watchConditional(*watch, *watchMax, func(etag string) ([]byte, string, bool, error) {
				return c.CacheConditional(*branchID, etag)
			}, fail)
		}
		data, err := c.Cache(*branchID)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
	case "reports":
		if *watch > 0 {
			watchConditional(*watch, *watchMax, func(etag string) ([]byte, string, bool, error) {
				return c.ReportsConditional(*branchID, etag)
			}, fail)
		}
		data, err := c.Reports(*branchID)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
	case "archive":
		points, err := c.Archive(*branchID, *policy, rrd.Average, start, end)
		if err != nil {
			fail(err)
		}
		for _, p := range points {
			fmt.Printf("%s %g\n", p.Time.Format(time.RFC3339), p.Value)
		}
	case "graph":
		g, err := c.Graph(*branchID, *policy, rrd.Average, start, end, *branchID, *policy)
		if err != nil {
			fail(err)
		}
		fmt.Println(g)
	case "summary":
		ag := agreement.TeraGrid()
		if *agreeFile != "" {
			data, err := os.ReadFile(*agreeFile)
			if err != nil {
				fail(err)
			}
			if ag, err = agreement.Parse(data); err != nil {
				fail(err)
			}
		}
		dump, err := c.Cache("")
		if err != nil {
			fail(err)
		}
		cache, err := depot.LoadDump(dump, branch.ID{})
		if err != nil {
			fail(err)
		}
		status, err := agreement.Evaluate(ag, cache, time.Now().UTC())
		if err != nil {
			fail(err)
		}
		fmt.Print(consumer.SummaryText(status))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// watchConditional polls with ETag revalidation, printing a fresh body
// each time the depot changes; it never returns. Consecutive 304s double
// the sleep toward maxInterval — against a federated router every poll
// still fans out to all shards, so an idle watcher backing off cuts the
// whole federation's revalidation load, not just one server's. Any
// change (or the first fetch) resets the interval. Each sleep is
// jittered ±25% so a fleet of watchers started together (or woken by the
// same change) spreads back out instead of revalidating in lockstep.
func watchConditional(interval, maxInterval time.Duration, fetch func(etag string) ([]byte, string, bool, error), fail func(error)) {
	if maxInterval <= 0 {
		maxInterval = 8 * interval
	}
	if maxInterval < interval {
		maxInterval = interval
	}
	etag := ""
	sleep := interval
	for {
		body, newTag, notModified, err := fetch(etag)
		if err != nil {
			fail(err)
		}
		if notModified {
			fmt.Fprintf(os.Stderr, "%s unchanged (ETag %s, next poll in %s)\n", time.Now().UTC().Format(time.RFC3339), etag, sleep)
		} else {
			fmt.Fprintf(os.Stderr, "%s changed (ETag %s -> %s)\n", time.Now().UTC().Format(time.RFC3339), etag, newTag)
			fmt.Println(string(body))
			etag = newTag
			sleep = interval
		}
		time.Sleep(jitter(sleep))
		if notModified && sleep < maxInterval {
			sleep *= 2
			if sleep > maxInterval {
				sleep = maxInterval
			}
		}
	}
}

// jitter spreads d uniformly across [0.75d, 1.25d].
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d - d/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// subscribeFeed consumes the server's change feed, materializing the
// subscribed subtree locally (snapshot, then incremental updates) and
// printing one machine-parsable line per event with the FNV-64a hash of
// the materialized state — so an external check can prove the pushed
// view converges on the polled one. Reconnects resume from the last
// cursor.
func subscribeFeed(c *query.Client, branchID, cursor string, fail func(error)) {
	prefix, err := branch.Parse(branchID)
	if err != nil {
		fail(err)
	}
	state := depot.NewIndexedCache()
	stateHash := func() string {
		h := fnv.New64a()
		h.Write(state.Dump())
		return fmt.Sprintf("%016x", h.Sum64())
	}
	backoff := time.Second
	for {
		fs, err := c.FeedSubscribe(branchID, cursor, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "subscribe: %v (retrying in %s)\n", err, backoff)
			time.Sleep(jitter(backoff))
			if backoff *= 2; backoff > 30*time.Second {
				backoff = 30 * time.Second
			}
			continue
		}
		backoff = time.Second
		for {
			ev, err := fs.Next()
			if err != nil {
				fmt.Fprintf(os.Stderr, "feed closed: %v (resuming from %s)\n", err, cursor)
				break
			}
			switch ev.Type {
			case "snapshot":
				cursor = ev.Cursor
				// The snapshot is the subtree at the subscribed prefix (empty
				// while nothing is stored there), so it restores under it.
				if len(ev.Data) == 0 {
					state = depot.NewIndexedCache()
				} else if state, err = depot.LoadDump(ev.Data, prefix); err != nil {
					fail(fmt.Errorf("bad snapshot: %w", err))
				}
				fmt.Printf("snapshot cursor=%s entries=%d hash=%s\n", cursor, state.Count(), stateHash())
			case "resume":
				cursor = ev.Cursor
				fmt.Printf("resume cursor=%s\n", cursor)
			case "change":
				cursor = ev.Cursor
				fc, cerr := ev.Change()
				if cerr != nil {
					fmt.Fprintf(os.Stderr, "bad change event: %v\n", cerr)
					continue
				}
				if fc.Kind == "report" {
					id, perr := branch.Parse(fc.Branch)
					if perr != nil {
						fmt.Fprintf(os.Stderr, "bad change branch: %v\n", perr)
						continue
					}
					if _, uerr := state.Update(id, []byte(fc.Report)); uerr != nil {
						fmt.Fprintf(os.Stderr, "apply change: %v\n", uerr)
						continue
					}
				}
				fmt.Printf("change cursor=%s branch=%s kind=%s hash=%s\n", cursor, fc.Branch, fc.Kind, stateHash())
			case "status":
				fmt.Printf("status cursor=%s %s\n", ev.Cursor, ev.Data)
			case "error":
				fmt.Fprintf(os.Stderr, "feed error: %s\n", ev.Data)
				cursor = ""
			}
		}
		fs.Close()
		time.Sleep(jitter(backoff))
	}
}

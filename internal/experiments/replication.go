package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"inca/internal/federation"
	"inca/internal/loadgen"
	"inca/internal/wire"
)

// The replication experiment (DESIGN.md §5c): the federation router's
// follower tee against the unreplicated router, and the cost of a
// failover. The router, its per-shard batch clients, and the shard
// endpoints are all production pieces over real TCP — only the shard
// behind the socket is a stub that acks and counts, so the measured
// path is exactly the tee (second Enqueue + second connection's
// batches), not depot work.

// ReplicationOptions configures the replication experiment.
type ReplicationOptions struct {
	// Messages is how many reports each ingest cell routes (default 4000).
	Messages int
	// Workers is the concurrent Handle caller count (default 8).
	Workers int
	// Shards is the primary count (default 2).
	Shards int
	// FailoverRounds is how many promote-and-drain rounds the failover
	// cell averages over (default 5).
	FailoverRounds int
	// FailoverQueue is how many messages sit queued toward the dead
	// primary when failover starts (default 500).
	FailoverQueue int
}

func (o *ReplicationOptions) fill() {
	if o.Messages <= 0 {
		o.Messages = 4000
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.FailoverRounds <= 0 {
		o.FailoverRounds = 5
	}
	if o.FailoverQueue <= 0 {
		o.FailoverQueue = 500
	}
}

// ackSink is a real wire server that acks everything and counts.
type ackSink struct {
	srv   *wire.Server
	acked atomic.Int64
}

func newAckSink() (*ackSink, error) {
	s := &ackSink{}
	srv, err := wire.Serve("127.0.0.1:0", func(m *wire.Message, remote string) *wire.Ack {
		s.acked.Add(1)
		return &wire.Ack{OK: true}
	})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// deadSinkAddr returns an address nothing listens on (bind, note the
// port, close): the stand-in for a SIGKILLed primary.
func deadSinkAddr() (string, error) {
	s, err := newAckSink()
	if err != nil {
		return "", err
	}
	addr := s.srv.Addr()
	s.srv.Close()
	return addr, nil
}

func replicationBatch() wire.BatchOptions {
	return wire.BatchOptions{FlushInterval: time.Millisecond, DialTimeout: time.Second, IOTimeout: 5 * time.Second}
}

// replicationIngestCell measures Handle throughput through a router whose
// shards all ack instantly, with or without a follower tee per shard.
func replicationIngestCell(shards, workers, messages int, replicate bool) (cellStats, error) {
	var sinks []*ackSink
	defer func() {
		for _, s := range sinks {
			s.srv.Close()
		}
	}()
	specs := make([]federation.Shard, shards)
	for i := range specs {
		p, err := newAckSink()
		if err != nil {
			return cellStats{}, err
		}
		sinks = append(sinks, p)
		specs[i] = federation.Shard{Wire: p.srv.Addr()}
		if replicate {
			f, err := newAckSink()
			if err != nil {
				return cellStats{}, err
			}
			sinks = append(sinks, f)
			specs[i].ReplicaWire = f.srv.Addr()
		}
	}
	r, err := federation.NewRouter(specs, federation.RouterOptions{Batch: replicationBatch()})
	if err != nil {
		return cellStats{}, err
	}
	defer r.Close()

	// The TeraGrid shape: 40 site prefixes for the ring to spread over the shards.
	ids := queryBenchPopulation(40 * 26)
	data := loadgen.MustPremadeReport(851)
	return runCell(workers, cellStop{ops: messages}, func(i int) error {
		m := &wire.Message{Branch: ids[i%len(ids)].String(), Hostname: "bench", Report: data}
		if ack := r.Handle(m, "bench"); !ack.OK {
			return fmt.Errorf("nack: %s", ack.Message)
		}
		return nil
	}, r.Drain)
}

// replicationFailoverCell measures the failover drain: queue messages
// toward a dead primary whose follower is live, then time Promote (ring
// swap + harvest + re-enqueue) through Drain (every message redelivered).
func replicationFailoverCell(rounds, queued int) ([]float64, error) {
	durations := make([]float64, 0, rounds)
	ids := queryBenchPopulation(40 * 26)
	data := loadgen.MustPremadeReport(851)
	for round := 0; round < rounds; round++ {
		dead, err := deadSinkAddr()
		if err != nil {
			return nil, err
		}
		follower, err := newAckSink()
		if err != nil {
			return nil, err
		}
		bo := replicationBatch()
		bo.MaxPending = -1 // hold the whole queue toward the dead primary
		r, err := federation.NewRouter(
			[]federation.Shard{{Wire: dead, ReplicaWire: follower.srv.Addr()}},
			federation.RouterOptions{Batch: bo})
		if err != nil {
			follower.srv.Close()
			return nil, err
		}
		for i := 0; i < queued; i++ {
			m := &wire.Message{Branch: ids[i%len(ids)].String(), Hostname: "bench", Report: data}
			if ack := r.Handle(m, "bench"); !ack.OK {
				r.Close()
				follower.srv.Close()
				return nil, fmt.Errorf("nack: %s", ack.Message)
			}
		}
		start := time.Now()
		if _, _, err := r.Promote(dead); err != nil {
			r.Close()
			follower.srv.Close()
			return nil, err
		}
		if err := r.Drain(); err != nil {
			r.Close()
			follower.srv.Close()
			return nil, err
		}
		durations = append(durations, float64(time.Since(start))/float64(time.Millisecond))
		r.Close()
		follower.srv.Close()
	}
	return durations, nil
}

// Replication runs the replication experiment: the follower tee's ingest
// overhead against the unreplicated router, and the promote-and-drain
// failover latency.
func Replication(opt ReplicationOptions) Result {
	opt.fill()
	return timed("replication", "Per-shard replication: follower-tee overhead and failover drain", func(r *Result) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-10s %-8s %-9s %14s %10s %10s %10s %10s\n",
			"mode", "shards", "workers", "ops/sec", "overhead", "p50µs", "p95µs", "p99µs")
		var base float64
		for _, replicate := range []bool{false, true} {
			cell, err := replicationIngestCell(opt.Shards, opt.Workers, opt.Messages, replicate)
			if err != nil {
				r.Text = "error: " + err.Error()
				return
			}
			mode, overhead := "primary", 1.0
			if replicate {
				mode = "tee"
				overhead = base / cell.OpsPerSec
			} else {
				base = cell.OpsPerSec
			}
			fmt.Fprintf(&sb, "%-10s %-8d %-9d %14.0f %9.2fx %10.1f %10.1f %10.1f\n",
				mode, opt.Shards, opt.Workers, cell.OpsPerSec, overhead, cell.P50, cell.P95, cell.P99)
			m := cell.metric("ingest", map[string]string{
				"replicate": fmt.Sprint(replicate), "shards": fmt.Sprint(opt.Shards), "workers": fmt.Sprint(opt.Workers),
			})
			m.Value, m.ValueUnit = overhead, "x-cost-vs-unreplicated"
			r.Metrics = append(r.Metrics, m)
		}
		failovers, err := replicationFailoverCell(opt.FailoverRounds, opt.FailoverQueue)
		if err != nil {
			r.Text = "error: " + err.Error()
			return
		}
		var worst, sum float64
		for _, d := range failovers {
			sum += d
			if d > worst {
				worst = d
			}
		}
		mean := sum / float64(len(failovers))
		fmt.Fprintf(&sb, "\nfailover (promote + re-enqueue + redeliver %d queued): mean %.1fms, worst %.1fms over %d rounds\n",
			opt.FailoverQueue, mean, worst, len(failovers))
		r.Metrics = append(r.Metrics, Metric{
			Name:   "failover-drain",
			Labels: map[string]string{"queued": fmt.Sprint(opt.FailoverQueue), "rounds": fmt.Sprint(opt.FailoverRounds)},
			Value:  mean, ValueUnit: "ms-mean-promote-to-drained",
		})
		r.Text = sb.String()
		r.Notes = append(r.Notes,
			"router, batch clients, and wire servers are the production pieces over real TCP; the shard behind each socket is an ack-and-count stub, so the cells isolate the routing tier from depot work",
			"tee mode pays one extra Enqueue plus a second connection's batch writes per message; the primary ack never waits on the follower (a full follower backlog is counted shed, not blocking)",
			"failover measures Promote (ring identity swap + CloseHarvest + re-enqueue toward the follower) through Drain with the queue already replicated by the tee — steady-state failover, not catch-up",
			"overhead is unreplicated ops/sec divided by tee ops/sec (1.00x = free)",
		)
	})
}

package federation

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/metrics"
	"inca/internal/simtime"
	"inca/internal/wire"
)

// Shard names one depot slice: the primary process's wire and HTTP
// addresses, plus (optionally) a follower process the router tees the
// same wire stream to — the per-shard replica that survives the primary
// (DESIGN.md §5c).
type Shard struct {
	// ID is the shard's ring identity. It is empty until a promotion:
	// ring placement must survive a primary's death, so when the follower
	// takes over, the departed primary's name is pinned here while Wire
	// and HTTP flip to the follower's addresses. Name() folds this in.
	ID string
	// Wire is the primary's distributed-controller TCP address; until a
	// promotion it doubles as the shard's identity on the ring.
	Wire string
	// HTTP is the primary's querying-interface address ("" when the
	// shard only ingests). A bare host:port is accepted; the query tier
	// adds the scheme.
	HTTP string
	// ReplicaWire is the follower's wire address ("" = no follower). The
	// router replays every accepted message for this shard to it.
	ReplicaWire string
	// ReplicaHTTP is the follower's querying-interface address; when set
	// the query tier may prefer it for reads.
	ReplicaHTTP string
}

// Name returns the shard's ring identity — stable across promotion.
func (s Shard) Name() string {
	if s.ID != "" {
		return s.ID
	}
	return s.Wire
}

// HasReplica reports whether a follower is attached.
func (s Shard) HasReplica() bool { return s.ReplicaWire != "" }

func baseURL(httpAddr string) string {
	if httpAddr == "" {
		return ""
	}
	if strings.Contains(httpAddr, "://") {
		return httpAddr
	}
	return "http://" + httpAddr
}

// BaseURL returns the primary's querying interface URL.
func (s Shard) BaseURL() string { return baseURL(s.HTTP) }

// ReplicaBaseURL returns the follower's querying interface URL ("" when
// the shard has no follower or it only ingests).
func (s Shard) ReplicaBaseURL() string { return baseURL(s.ReplicaHTTP) }

// ParseShard parses "wireAddr/httpAddr[=replicaWire/replicaHTTP]" (the
// slashes, HTTP parts, and the whole follower suffix optional).
func ParseShard(s string) (Shard, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Shard{}, fmt.Errorf("federation: empty shard spec")
	}
	primary, replica, hasReplica := strings.Cut(s, "=")
	wireAddr, httpAddr, _ := strings.Cut(primary, "/")
	if wireAddr == "" {
		return Shard{}, fmt.Errorf("federation: shard spec %q has no wire address", s)
	}
	sh := Shard{Wire: wireAddr, HTTP: httpAddr}
	if hasReplica {
		rw, rh, _ := strings.Cut(replica, "/")
		if rw == "" {
			return Shard{}, fmt.Errorf("federation: shard spec %q has an empty follower", s)
		}
		sh.ReplicaWire, sh.ReplicaHTTP = rw, rh
	}
	return sh, nil
}

// ParseShards parses a comma-separated -federate topology list.
func ParseShards(list string) ([]Shard, error) {
	var out []Shard
	for _, part := range strings.Split(list, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		s, err := ParseShard(part)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("federation: no shards in %q", list)
	}
	return out, nil
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Batch templates the per-shard wire.BatchClient (Metrics is
	// overridden by the router's registry).
	Batch wire.BatchOptions
	// Metrics, when set, registers the router's counters and the shard
	// clients' delivery instruments there.
	Metrics *metrics.Registry
	// Clock drives the re-route retry backoff and its deadline. Nil uses
	// the wall clock; tests inject a simtime.Sim so retry exhaustion runs
	// without real sleeps.
	Clock simtime.Clock
}

// Router is the federation ingest tier: a wire.Handler that accepts the
// agent→controller protocol and forwards every message to the shard
// owning its branch over a per-shard BatchClient. Acknowledging a message
// transfers custody to the router; from there the batch client's
// at-least-once machinery (in-flight tracking, requeue on connection
// loss) carries it to the shard, and a shard's departure harvests its
// queue back for re-routing. Loss is bounded exactly as for one
// BatchClient: a full backlog refuses (the sender keeps custody), and only
// a shard client closed with undeliverable messages loses them.
type Router struct {
	opt   RouterOptions
	clock simtime.Clock

	mu       sync.RWMutex
	ring     *Ring
	shards   map[string]Shard             // by ring name
	clients  map[string]*wire.BatchClient // primary, by ring name
	replicas map[string]*wire.BatchClient // follower tee, by ring name
	epoch    uint64                       // bumps on each promotion, which the ring signature cannot see

	// reWG tracks in-flight orphan re-routes (Leave/Promote): Drain waits
	// them out first, so a message harvested but not yet re-enqueued can
	// never slip past the router-wide barrier.
	reWG sync.WaitGroup

	routed         *metrics.Counter
	rerouted       *metrics.Counter
	unroutable     *metrics.Counter
	refused        *metrics.Counter
	rerouteDropped *metrics.Counter
	replicaShed    *metrics.Counter
	promotions     *metrics.Counter
}

// NewRouter builds a router over the initial shard topology.
func NewRouter(shards []Shard, opt RouterOptions) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("federation: router needs at least one shard")
	}
	reg := opt.Metrics
	clock := opt.Clock
	if clock == nil {
		clock = simtime.Real{}
	}
	r := &Router{
		opt:            opt,
		clock:          clock,
		shards:         make(map[string]Shard, len(shards)),
		clients:        make(map[string]*wire.BatchClient, len(shards)),
		replicas:       make(map[string]*wire.BatchClient),
		routed:         reg.Counter("inca_federation_routed_total", "Messages accepted and routed to an owning shard."),
		rerouted:       reg.Counter("inca_federation_rerouted_total", "Harvested messages re-routed after a shard left."),
		unroutable:     reg.Counter("inca_federation_unroutable_total", "Messages refused or dropped for an unparseable branch or missing owner."),
		refused:        reg.Counter("inca_federation_refused_total", "Messages nacked because the owning shard's backlog was full — custody stayed with the sender."),
		rerouteDropped: reg.Counter("inca_federation_reroute_dropped_total", "Harvested messages dropped because no successor could accept them before the re-route deadline."),
		replicaShed:    reg.Counter("inca_federation_replica_shed_total", "Replication copies refused by a follower client's full backlog — the follower lags until catch-up."),
		promotions:     reg.Counter("inca_federation_promotions_total", "Followers promoted to primary."),
	}
	names := make([]string, 0, len(shards))
	for _, s := range shards {
		if _, dup := r.shards[s.Name()]; dup {
			return nil, fmt.Errorf("federation: duplicate shard %s", s.Name())
		}
		r.shards[s.Name()] = s
		r.clients[s.Name()] = r.newClient(s.Wire)
		if s.HasReplica() {
			r.replicas[s.Name()] = r.newClient(s.ReplicaWire)
		}
		names = append(names, s.Name())
	}
	r.ring = NewRing(names, RingOptions{})
	return r, nil
}

func (r *Router) newClient(addr string) *wire.BatchClient {
	bo := r.opt.Batch
	bo.Metrics = r.opt.Metrics
	return wire.NewBatchClient(addr, bo)
}

// Ring returns the current ring (immutable; safe to keep).
func (r *Router) Ring() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// Shards returns the current topology in ring-member order — the order
// the query tier composes per-shard ETags in.
func (r *Router) Shards() []Shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Shard, 0, len(r.shards))
	for _, name := range r.ring.Members() {
		out = append(out, r.shards[name])
	}
	return out
}

// Owner returns the shard owning id.
func (r *Router) Owner(id branch.ID) (Shard, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	name := r.ring.Owner(id)
	s, ok := r.shards[name]
	return s, ok
}

// Shard returns the shard registered under a ring name.
func (r *Router) Shard(name string) (Shard, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.shards[name]
	return s, ok
}

// Epoch counts promotions, the one replica-topology change the ring
// signature cannot see: ring membership is stable across a promotion by
// design, yet the shard's read state moves to a different process whose
// generation counters need not align. Attaching a follower changes no
// read state (every read goes to the primary), so it leaves the epoch
// alone.
func (r *Router) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Signature fingerprints everything a composed validator depends on: the
// ring membership plus the replica epoch. The query tier composes ETags
// and feed cursors under this, so a promotion — invisible to the ring —
// still invalidates every validator minted before it instead of letting
// the promoted follower's unrelated generation numbers falsely
// revalidate. A follower attach leaves it unchanged.
func (r *Router) Signature() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.epoch == 0 {
		return r.ring.Signature()
	}
	return r.ring.Signature() + "p" + strconv.FormatUint(r.epoch, 10)
}

// Handle implements wire.Handler: check the branch, enqueue the message
// toward its owner, acknowledge. The branch is checked and hashed where it
// lies in the received frame (branch.Check, Ring.OwnerText), and the
// message carries that frame to the shard client, which writes it
// verbatim: a routed message costs no parse, no re-encoding and no ack
// allocation. The ack is a custody transfer, not an end-to-end receipt —
// the batch client redelivers across shard connection faults, so the
// distributed controller's spool can discard the report. Signature
// verification stays with the shard controllers (the signature rides
// inside the forwarded frame); the router adds no trust.
func (r *Router) Handle(m *wire.Message, remoteAddr string) *wire.Ack {
	if err := branch.Check(m.Branch); err != nil {
		r.unroutable.Inc()
		return &wire.Ack{OK: false, Message: "bad branch: " + err.Error()}
	}
	r.mu.RLock()
	owner := r.ring.OwnerText(m.Branch)
	client := r.clients[owner]
	replica := r.replicas[owner]
	r.mu.RUnlock()
	if client == nil {
		r.unroutable.Inc()
		return &wire.Ack{OK: false, Message: "no shard owns " + m.Branch}
	}
	// Enqueue never sheds: past MaxPending it refuses this message
	// instead of silently dropping an older one that was already acked.
	// A refusal nacks the sender — the agent's spool keeps custody and
	// retries — so an OK ack always means the router holds the message.
	if err := client.Enqueue(m); err != nil {
		r.refused.Inc()
		return &wire.Ack{OK: false, Message: "shard " + owner + " backlog: " + err.Error()}
	}
	// Tee the same message to the follower. Its client carries the same
	// at-least-once contract toward the replica; a full follower backlog
	// is counted (the follower lags until catch-up) but never blocks the
	// primary ack — replication must not couple ingest availability to
	// the follower's health.
	if replica != nil {
		if err := replica.Enqueue(m); err != nil {
			r.replicaShed.Inc()
		}
	}
	r.routed.Inc()
	return wire.AckOK
}

// Join adds a shard to the ring. Only the ring ranges the new member
// claims move; everything else keeps its owner (see TestRingRemapFraction
// for the ≈1/N bound). Data migration for the moved ranges is the query
// tier's business — the router only changes where new ingest lands.
func (r *Router) Join(s Shard) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.shards[s.Name()]; dup {
		return fmt.Errorf("federation: shard %s already joined", s.Name())
	}
	r.shards[s.Name()] = s
	r.clients[s.Name()] = r.newClient(s.Wire)
	if s.HasReplica() {
		r.replicas[s.Name()] = r.newClient(s.ReplicaWire)
	}
	r.ring = r.ring.With(s.Name())
	return nil
}

// AttachReplica wires a follower to an existing shard at runtime: the
// router starts teeing the shard's wire stream to it immediately. The
// follower's history before this moment is empty — run the catch-up copy
// (the §5h migration path: fetch the primary's /reports, re-store on the
// follower) to close that gap. The follower serves no reads, so the
// signature, and every validator minted under it, stays as it was.
func (r *Router) AttachReplica(name, replicaWire, replicaHTTP string) error {
	if replicaWire == "" {
		return fmt.Errorf("federation: follower needs a wire address")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.shards[name]
	if !ok {
		return fmt.Errorf("federation: unknown shard %s", name)
	}
	if s.HasReplica() {
		return fmt.Errorf("federation: shard %s already has follower %s", name, s.ReplicaWire)
	}
	s.ReplicaWire, s.ReplicaHTTP = replicaWire, replicaHTTP
	r.shards[name] = s
	r.replicas[name] = r.newClient(replicaWire)
	return nil
}

// Promote fails a shard's slice over to its follower: the follower's
// addresses become the shard's, its tee client becomes the primary
// client, and the ring does not move — the departed primary's name stays
// the ring identity (Shard.ID), so no branch changes owner and no data
// migrates. Every message still queued toward the dead primary is
// harvested and re-enqueued to the promoted follower (the at-least-once
// custody chain across the failover). Returns the promoted shard and how
// many harvested messages were re-enqueued.
func (r *Router) Promote(name string) (Shard, int, error) {
	r.mu.Lock()
	s, ok := r.shards[name]
	if !ok {
		r.mu.Unlock()
		return Shard{}, 0, fmt.Errorf("federation: unknown shard %s", name)
	}
	if !s.HasReplica() {
		r.mu.Unlock()
		return Shard{}, 0, fmt.Errorf("federation: shard %s has no follower to promote", name)
	}
	old := r.clients[name]
	s.ID = s.Name() // pin the ring identity before the addresses flip
	s.Wire, s.HTTP = s.ReplicaWire, s.ReplicaHTTP
	s.ReplicaWire, s.ReplicaHTTP = "", ""
	r.shards[name] = s
	r.clients[name] = r.replicas[name] // the tee client already points at the follower
	delete(r.replicas, name)
	r.epoch++
	r.promotions.Inc()
	r.reWG.Add(1)
	r.mu.Unlock()
	defer r.reWG.Done()

	// Everything the dead primary never acknowledged goes to the promoted
	// follower — same slice, same ring owner, new process.
	orphans := old.CloseHarvest()
	moved := r.rerouteOrphans(name, orphans)
	return s, moved, nil
}

// DrainShard is the drain barrier for a graceful leave: it blocks until
// every message accepted for the shard has been written and acknowledged
// (or returns the delivery error for a shard that cannot be reached).
func (r *Router) DrainShard(name string) error {
	r.mu.RLock()
	client := r.clients[name]
	r.mu.RUnlock()
	if client == nil {
		return fmt.Errorf("federation: unknown shard %s", name)
	}
	return client.Drain()
}

// rerouteDeadline bounds how long a re-route retries against successors
// whose backlogs are full before counting the message as dropped.
const rerouteDeadline = 10 * time.Second

// Re-route retries back off exponentially with jitter instead of
// polling on a fixed short sleep: a successor refusing because its
// backlog is full needs time to drain, and hammering it every few
// milliseconds burns CPU (and, with many concurrent re-routes,
// synchronizes the retries into thundering herds). The ladder is
// simtime.Backoff from rerouteBackoffBase up to rerouteBackoffCap, slept
// on the router's clock.
const (
	rerouteBackoffBase = 5 * time.Millisecond
	rerouteBackoffCap  = 250 * time.Millisecond
)

// rerouteOrphans re-enqueues harvested messages through the current ring
// with full accounting: every orphan ends as exactly one of rerouted
// (moved to a live successor's queue), unroutable (unparseable branch or
// no owner — counted, never silently skipped), or rerouteDropped (no
// successor could accept it before the deadline). A successor whose
// backlog is full is flushed and retried; a successor that closed under
// us (concurrent Leave) is re-resolved through the fresh ring. One log
// line summarizes any loss so it cannot vanish into a counter nobody
// reads. Returns the moved count.
func (r *Router) rerouteOrphans(from string, orphans []*wire.Message) int {
	moved, dropped, bad := 0, 0, 0
	var flushErr error
	deadline := r.clock.Now().Add(rerouteDeadline)
	for _, m := range orphans {
		id, err := branch.Parse(m.Branch)
		if err != nil {
			// Handle validates branches, so this is defensive — but a
			// defensive skip must still be a counted loss, not a silent one.
			bad++
			continue
		}
		for refusals := 1; ; refusals++ {
			r.mu.RLock()
			next := r.clients[r.ring.Owner(id)]
			r.mu.RUnlock()
			if next == nil {
				bad++
				break
			}
			err := next.Enqueue(m)
			if err == nil {
				moved++
				break
			}
			if r.clock.Now().After(deadline) {
				dropped++
				break
			}
			// Backlog full (or the successor left concurrently): kick a
			// flush to open space, back off, and retry; a closed client
			// re-resolves to the new owner on the next pass. Flush reports
			// a collected delivery failure only once, so it is kept for
			// the summary line rather than dropped here.
			if err := next.Flush(); err != nil && flushErr == nil {
				flushErr = err
			}
			r.clock.Sleep(simtime.Backoff(rerouteBackoffBase, rerouteBackoffCap, refusals))
		}
	}
	r.rerouted.Add(uint64(moved))
	r.unroutable.Add(uint64(bad))
	r.rerouteDropped.Add(uint64(dropped))
	if bad+dropped > 0 {
		log.Printf("federation: re-route from %s lost %d of %d harvested messages (%d unroutable, %d dropped after %s of backlog refusals)",
			from, bad+dropped, len(orphans), bad, dropped, rerouteDeadline)
	}
	if flushErr != nil {
		log.Printf("federation: re-route from %s: successor delivery failing: %v", from, flushErr)
	}
	return moved
}

// Leave removes a shard. New ingest for its ranges re-routes to the
// survivors immediately, and every message still queued toward the
// departed shard — including batches written but never acknowledged, the
// kill-mid-stream case — is harvested and re-enqueued through the new
// ring. Call DrainShard first for a graceful departure; skip it when the
// shard is already dead; prefer Promote when the shard has a follower
// (the slice then fails over instead of redistributing). Returns how
// many messages were re-routed and how many were lost in the attempt
// (unroutable or dropped — zero unless successors were full or gone);
// losses are also counted in Stats, never silent. Re-routed messages are
// enqueued before Leave returns and in-flight re-routes are visible to
// Drain, so a Leave-then-Drain barrier covers them even when shards fail
// back to back.
func (r *Router) Leave(name string) (moved, lost int, err error) {
	r.mu.Lock()
	if _, ok := r.shards[name]; !ok {
		r.mu.Unlock()
		return 0, 0, fmt.Errorf("federation: unknown shard %s", name)
	}
	if len(r.shards) == 1 {
		r.mu.Unlock()
		return 0, 0, fmt.Errorf("federation: cannot remove the last shard")
	}
	client := r.clients[name]
	replica := r.replicas[name]
	delete(r.shards, name)
	delete(r.clients, name)
	delete(r.replicas, name)
	r.ring = r.ring.Without(name)
	r.reWG.Add(1)
	r.mu.Unlock()
	defer r.reWG.Done()

	// The follower leaves with its shard: its queue holds only replication
	// copies of messages whose custody the primary client tracks, so it is
	// closed without re-routing (re-enqueueing copies would double-deliver
	// by design, not by fault).
	if replica != nil {
		replica.CloseHarvest()
	}
	// Harvest outside the lock: CloseHarvest may wait out an ack reader.
	orphans := client.CloseHarvest()
	moved = r.rerouteOrphans(name, orphans)
	return moved, len(orphans) - moved, nil
}

// Flush pushes every shard client's pending partial batch.
func (r *Router) Flush() error {
	var first error
	for _, c := range r.snapshotClients() {
		if err := c.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Drain blocks until every accepted message has been acknowledged by its
// shard (the router-wide barrier the smoke tests and shutdown use).
// In-flight orphan re-routes are waited out first: a message harvested by
// a concurrent Leave or Promote lands in a survivor's queue before the
// per-client drains run, so back-to-back shard failures cannot strand a
// message invisible to the barrier.
func (r *Router) Drain() error {
	r.reWG.Wait()
	var first error
	for _, c := range r.snapshotClients() {
		if err := c.Drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close drains and closes every shard client, follower tees included.
func (r *Router) Close() error {
	r.reWG.Wait()
	var first error
	for _, c := range r.snapshotClients() {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *Router) snapshotClients() []*wire.BatchClient {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*wire.BatchClient, 0, len(r.clients)+len(r.replicas))
	for _, c := range r.clients {
		out = append(out, c)
	}
	for _, c := range r.replicas {
		out = append(out, c)
	}
	return out
}

// ShardStats is one shard's delivery accounting.
type ShardStats struct {
	Shard Shard
	Batch wire.BatchStats
	// Replica is the follower tee's accounting; zero (and HasReplica
	// false) when the shard runs unreplicated.
	Replica    wire.BatchStats
	HasReplica bool
}

// RouterStats snapshots the router's routing and per-shard delivery
// counters. The custody ledger reconciles as: every Handle call ends as
// exactly one of Routed, Refused, or Unroutable; every Routed message
// ends acknowledged by a shard (primary Batch.Acked/Rejected), possibly
// after Rerouted re-accounting on a Leave/Promote, except the explicitly
// counted RerouteDropped. Nothing is lost without a counter moving.
type RouterStats struct {
	Routed         uint64
	Rerouted       uint64
	Unroutable     uint64
	Refused        uint64
	RerouteDropped uint64
	ReplicaShed    uint64
	Promotions     uint64
	Epoch          uint64
	Shards         []ShardStats
}

// Stats returns a snapshot of routing and delivery accounting, shards in
// ring-member order.
func (r *Router) Stats() RouterStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := RouterStats{
		Routed:         r.routed.Value(),
		Rerouted:       r.rerouted.Value(),
		Unroutable:     r.unroutable.Value(),
		Refused:        r.refused.Value(),
		RerouteDropped: r.rerouteDropped.Value(),
		ReplicaShed:    r.replicaShed.Value(),
		Promotions:     r.promotions.Value(),
		Epoch:          r.epoch,
	}
	for _, name := range r.ring.Members() {
		ss := ShardStats{Shard: r.shards[name], Batch: r.clients[name].Stats()}
		if rc := r.replicas[name]; rc != nil {
			ss.Replica = rc.Stats()
			ss.HasReplica = true
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

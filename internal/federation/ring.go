// Package federation distributes the branch space across several depot
// processes — the paper's Section 6 direction ("work has begun on
// distributing the depot functionality"): a consistent-hash ring maps
// branch identifiers to depot addresses, a router forwards ingest batches
// to the owning shard over the batched wire protocol, and the query tier
// scatter-gathers reads back into the single-depot document shape.
//
// The ring hashes only a branch identifier's most-general components, so
// a reporter's whole vo/site subtree lands on one shard: exact queries
// touch a single process, and membership changes move whole subtrees
// rather than scattering a site's reports.
package federation

import (
	"sort"
	"strconv"

	"inca/internal/branch"
)

// DefaultReplicas is the virtual-node count per member. Consistent
// hashing balances like max/mean ≈ 1 + O(1/√replicas); 256 points keeps
// the skew across shards well under the 20% the ring tests pin.
const DefaultReplicas = 256

// DefaultDepth is the branch-prefix affinity depth: hashing the two
// most-general components (vo, site) spreads sites across shards while
// keeping each site's subtree whole.
const DefaultDepth = 2

// RingOptions configures NewRing.
type RingOptions struct {
	// Replicas is the virtual-node count per member (default
	// DefaultReplicas).
	Replicas int
	// Depth is how many most-general branch components decide placement
	// (default DefaultDepth).
	Depth int
}

func (o *RingOptions) fill() {
	if o.Replicas <= 0 {
		o.Replicas = DefaultReplicas
	}
	if o.Depth <= 0 {
		o.Depth = DefaultDepth
	}
}

// Ring is an immutable consistent-hash ring over shard names. Membership
// changes return a new ring (With/Without), so a router can swap rings
// atomically while readers keep a coherent view.
type Ring struct {
	members  []string // sorted, unique
	replicas int
	depth    int
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int32
}

// NewRing builds a ring over members (duplicates are dropped, order is
// irrelevant — the ring sorts them so equal member sets build equal
// rings).
func NewRing(members []string, opt RingOptions) *Ring {
	opt.fill()
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		members:  uniq,
		replicas: opt.Replicas,
		depth:    opt.Depth,
		points:   make([]ringPoint, 0, len(uniq)*opt.Replicas),
	}
	for i, m := range uniq {
		for v := 0; v < opt.Replicas; v++ {
			h := hashString(m + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, member: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Identical vnode hashes (vanishingly rare) tie-break on member so
		// equal member sets always build identical rings.
		return r.points[a].member < r.points[b].member
	})
	return r
}

// hashString is FNV-1a 64 with a murmur-style avalanche finalizer,
// because FNV's trailing-byte linearity correlates badly when keys differ
// only near the end (site=s0, site=s1, ...).
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Members returns the sorted member names.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Depth returns the branch-prefix affinity depth.
func (r *Ring) Depth() int { return r.depth }

// Replicas returns the virtual-node count per member.
func (r *Ring) Replicas() int { return r.replicas }

// Key returns the placement key for a branch identifier: its most-general
// Depth components in general→specific order. Every identifier in one
// vo/site subtree shares a key, which is the prefix affinity.
func (r *Ring) Key(id branch.ID) string {
	path := id.Path()
	if len(path) > r.depth {
		path = path[:r.depth]
	}
	n := 0
	for _, p := range path {
		n += len(p.Name) + len(p.Value) + 2
	}
	b := make([]byte, 0, n)
	for i, p := range path {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.Name...)
		b = append(b, '=')
		b = append(b, p.Value...)
	}
	return string(b)
}

// Owner returns the member owning id ("" on an empty ring).
func (r *Ring) Owner(id branch.ID) string {
	return r.OwnerKey(r.Key(id))
}

// OwnerIndex returns the index (into Members order) of the member owning
// id, or -1 on an empty ring.
func (r *Ring) OwnerIndex(id branch.ID) int {
	return r.ownerIndexKey(r.Key(id))
}

// OwnerKey returns the member owning a placement key ("" on an empty
// ring).
func (r *Ring) OwnerKey(key string) string {
	i := r.ownerIndexKey(key)
	if i < 0 {
		return ""
	}
	return r.members[i]
}

func (r *Ring) ownerIndexKey(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hashString(key)
	// First vnode at or after h, wrapping past the top of the ring.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].member)
}

// With returns a new ring with member added (the receiver is unchanged).
func (r *Ring) With(member string) *Ring {
	return NewRing(append(r.Members(), member), RingOptions{Replicas: r.replicas, Depth: r.depth})
}

// Without returns a new ring with member removed.
func (r *Ring) Without(member string) *Ring {
	kept := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			kept = append(kept, m)
		}
	}
	return NewRing(kept, RingOptions{Replicas: r.replicas, Depth: r.depth})
}

// Signature fingerprints the membership and geometry; two rings with the
// same members, replicas and depth share a signature. The query tier
// folds it into composed ETags so a validator minted under one topology
// can never match under another.
func (r *Ring) Signature() string {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		const prime64 = 1099511628211
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		h = (h ^ 0xff) * prime64
	}
	for _, m := range r.members {
		mix(m)
	}
	mix(strconv.Itoa(r.replicas))
	mix(strconv.Itoa(r.depth))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return strconv.FormatUint(h, 36)
}

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
	"strings"

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

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd folds s into an FNV-1a 64 hash.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvFinish is a murmur-style avalanche finalizer, because FNV's
// trailing-byte linearity correlates badly when keys differ only near the
// end (site=s0, site=s1, ...).
func fnvFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashString is FNV-1a 64 with the finalizer.
func hashString(s string) uint64 { return fnvFinish(fnvAdd(fnvOffset64, s)) }

// keyHash hashes a branch identifier's placement key — its most-general
// Depth components in general→specific order, each "name=value", joined by
// ',' — as hashString would hash that string, without building it. Every
// identifier in one vo/site subtree shares a key, which is the prefix
// affinity.
type keyHash struct {
	h     uint64
	pairs int
}

func newKeyHash() keyHash { return keyHash{h: fnvOffset64} }

func (k *keyHash) add(name, value string) {
	if k.pairs > 0 {
		k.h = fnvAdd(k.h, ",")
	}
	k.h = fnvAdd(fnvAdd(fnvAdd(k.h, name), "="), value)
	k.pairs++
}

// Members returns the sorted member names.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Depth returns the branch-prefix affinity depth.
func (r *Ring) Depth() int { return r.depth }

// Replicas returns the virtual-node count per member.
func (r *Ring) Replicas() int { return r.replicas }

// Owner returns the member owning id ("" on an empty ring).
func (r *Ring) Owner(id branch.ID) string {
	k := newKeyHash()
	for i := len(id.Pairs) - 1; i >= 0 && k.pairs < r.depth; i-- {
		k.add(id.Pairs[i].Name, id.Pairs[i].Value)
	}
	return r.owner(k)
}

// OwnerText returns Owner(branch.MustParse(s)) for a branch text that
// branch.Check accepts, hashing the key straight from the text: the
// components are read from the right, trimmed as Parse trims them, and
// nothing is allocated.
func (r *Ring) OwnerText(s string) string {
	s = strings.TrimSpace(s)
	k := newKeyHash()
	for s != "" && k.pairs < r.depth {
		part := s
		if comma := strings.LastIndexByte(s, ','); comma >= 0 {
			part, s = s[comma+1:], s[:comma]
		} else {
			s = ""
		}
		name, value, _ := strings.Cut(strings.TrimSpace(part), "=")
		k.add(strings.TrimSpace(name), strings.TrimSpace(value))
	}
	return r.owner(k)
}

// pathOwner returns the member owning an explicit general→specific path.
func (r *Ring) pathOwner(path []branch.Pair) string {
	k := newKeyHash()
	for _, p := range path[:min(len(path), r.depth)] {
		k.add(p.Name, p.Value)
	}
	return r.owner(k)
}

func (r *Ring) owner(k keyHash) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnvFinish(k.h)
	// First vnode at or after h, wrapping past the top of the ring.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
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
	h := uint64(fnvOffset64)
	mix := func(s string) {
		h = (fnvAdd(h, s) ^ 0xff) * fnvPrime64
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

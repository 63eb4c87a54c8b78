// Package shard partitions the consensus tier by region group: a rendezvous
// hash ring assigns every region to exactly one shard coordinator, the
// coordinator runs that group's round barrier and forwards one census batch
// per round to the aggregation tier (cloud.Server), and the aggregator runs
// the unchanged global FDS fold — so the published ratio field is
// bit-identical to a single-server deployment by construction. The global
// fold cannot itself be split (regions couple through the interaction graph
// Gamma), which is exactly why the shards own the barriers and batching
// while one thin tier owns the fold.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a rendezvous (highest-random-weight) hash ring over shard names.
// Every region hashes against every shard and the highest score owns it —
// no virtual nodes, exact minimal movement: when a shard joins it steals
// only the regions it now wins, and when one leaves only its own regions
// move. Deterministic across processes (FNV-64a, ties broken by name).
type Ring struct {
	shards []string
}

// NewRing builds a ring over the given shard names, which must be non-empty
// and unique. The slice is copied and sorted so score ties resolve the same
// way regardless of argument order.
func NewRing(shards []string) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	owned := make([]string, 0, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("shard: empty shard name")
		}
		if seen[s] {
			return nil, fmt.Errorf("shard: duplicate shard name %q", s)
		}
		seen[s] = true
		owned = append(owned, s)
	}
	sort.Strings(owned)
	return &Ring{shards: owned}, nil
}

// Shards returns the ring's members in sorted order.
func (r *Ring) Shards() []string {
	out := make([]string, len(r.shards))
	copy(out, r.shards)
	return out
}

// Owner returns the shard owning region: the member with the highest
// rendezvous score for it.
func (r *Ring) Owner(region int) string {
	best, bestScore := r.shards[0], score(r.shards[0], region)
	for _, s := range r.shards[1:] {
		if sc := score(s, region); sc > bestScore {
			best, bestScore = s, sc
		}
	}
	return best
}

// score is the rendezvous weight of (shard, region): FNV-64a over
// "shard:region", pushed through a splitmix64-style finalizer. The
// finalizer matters: raw FNV of inputs differing only in their trailing
// region digits is strongly correlated, which lets one shard win whole
// contiguous region ranges; the extra avalanche rounds restore the
// independent-uniform scores rendezvous balance depends on. Sorted
// iteration in Owner makes the lowest name win exact score ties, so
// assignment is a pure function of the member set.
func score(shard string, region int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(shard))
	h.Write([]byte{':'})
	h.Write([]byte(strconv.Itoa(region)))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Names returns the conventional shard names for an n-coordinator
// deployment: "shard-0" … "shard-<n-1>". Every shard and edge derives its
// ring from it, so a shard id is enough to agree on the assignment.
func Names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "shard-" + strconv.Itoa(i)
	}
	return out
}

package routing

import (
	"sync"
	"sync/atomic"
	"time"

	"churntomo/internal/topology"
)

// Oracle answers "what was the AS path from src to dst at time t?" by
// computing Gao–Rexford trees for (destination, epoch) pairs on demand and
// caching them. It is the simulator's data plane: traceroutes, DNS queries
// and HTTP connections all route through it.
//
// Oracle is safe for concurrent use and built so that the measurement
// engine's workers never serialize on cache hits: the tree cache is a
// fixed array of set-associative slots, each an atomic pointer to an
// immutable entry, so a hit is at most oracleWays atomic loads and key
// compares — no locks and no shared writes. The sets are split among
// shards; a miss takes the mutex of the shard that owns its set, and
// concurrent misses on the same (destination, epoch) coalesce onto a
// single computation, so adjacent-day shards querying the same epoch don't
// duplicate the dominant cost. A miss evicts the oldest entry of its own
// set, so its cost does not grow with the capacity.
//
// Tree computation itself reads a per-epoch snapshot of the timeline (link
// down set and policy salts flattened into arrays) instead of binary
// searching the event history per link — see epochState.
//
// Nothing here affects output: trees are pure functions of (destination,
// epoch), so cache policy, shard layout and eviction order are invisible.
// The parallel == serial bit-identical invariant holds by construction.
type Oracle struct {
	G  *topology.Graph
	TL *Timeline

	ways         int // slots per set
	setsPerShard int
	// slots holds the sets back to back, ways slots each; shard s owns
	// sets [s*setsPerShard, (s+1)*setsPerShard). Stores happen under the
	// owning shard's mutex, loads anywhere.
	slots []atomic.Pointer[treeEntry]
	// oldest is each set's next victim way, guarded like slots' stores:
	// sets fill in way order and then evict first-in, first-out.
	oldest []uint8
	shards [oracleShards]treeShard
	epochs []atomic.Pointer[epochState]

	computes atomic.Int64 // trees actually computed (cache misses)
	queries  atomic.Int64
}

// oracleShards is the tree-cache shard count. Power of two; 64 spreads
// unrelated keys across independent locks.
const oracleShards = 64

// oracleWays is the cache's associativity: the slots a hit probes and
// among which a miss picks its victim. On the 30-day paper-baseline world
// at the default capacity, 8 ways computed 1.2% more trees than a 64-entry
// LRU per shard (conflict misses), 16 ways 0.02% more.
const oracleWays = 16

// treeShard guards the sets it owns and the in-flight computations of
// their keys.
type treeShard struct {
	mu       sync.Mutex
	inflight map[treeKey]*treeCall
}

// treeEntry is one cached tree with its key. Entries are immutable once
// published.
type treeEntry struct {
	key  treeKey
	tree Tree
}

// treeCall is one in-flight tree computation other workers can wait on.
type treeCall struct {
	done chan struct{}
	tree Tree
}

// epochState is the timeline's routing state during one epoch, flattened
// for O(1) reads: down is indexed by link ID, salt by AS index. States are
// immutable once published and built at most once per epoch (a benign
// build race loses to CompareAndSwap; both results are identical).
type epochState struct {
	down []bool
	salt []uint64
}

// NewOracle creates an oracle with room for cacheTrees cached routing
// trees; zero or negative values select a default sized for year-long
// scenario replays (a negative capacity would make the cache evict on
// every put, so it is clamped rather than honored). The capacity rounds
// down to whole sets, and to at least one tree per shard.
func NewOracle(g *topology.Graph, tl *Timeline, cacheTrees int) *Oracle {
	if cacheTrees <= 0 {
		cacheTrees = 4096
	}
	per := max(cacheTrees/oracleShards, 1)
	ways := min(per, oracleWays)
	sets := per / ways
	o := &Oracle{
		G: g, TL: tl, ways: ways, setsPerShard: sets,
		slots:  make([]atomic.Pointer[treeEntry], oracleShards*sets*ways),
		oldest: make([]uint8, oracleShards*sets),
		epochs: make([]atomic.Pointer[epochState], tl.NumEpochs()),
	}
	for i := range o.shards {
		o.shards[i].inflight = map[treeKey]*treeCall{}
	}
	return o
}

type treeKey struct {
	dst   int32
	epoch int32
	plane int32
}

// setOf maps a key to its shard and its set, with a splitmix-style mix so
// adjacent epochs and destinations land on different locks. The low bits
// pick the shard and the rest a set within it, so every set has exactly
// one owning shard.
func (o *Oracle) setOf(k treeKey) (shard, set int) {
	x := uint64(uint32(k.dst))<<32 | uint64(uint32(k.epoch))
	x ^= uint64(uint32(k.plane)) << 16
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	shard = int(x & (oracleShards - 1))
	return shard, shard*o.setsPerShard + int((x/oracleShards)%uint64(o.setsPerShard))
}

// planeSalt is the per-plane tie-break perturbation mixed into every AS's
// policy salt: plane 0 is zero (the canonical trees, byte-identical to a
// plane-unaware oracle), and each higher plane deterministically re-rolls
// the tie-breaks, yielding another equally-valid Gao–Rexford tree — the
// model of an ECMP/load-balanced forwarding plane where equally-preferred
// routes are hashed per flow.
func planeSalt(plane int32) uint64 {
	if plane == 0 {
		return 0
	}
	return splitmix(0x65636d70 ^ uint64(uint32(plane))) // "ecmp"
}

// TreeAt returns the routing tree toward dst (AS index) during epoch ep on
// the canonical forwarding plane. The returned tree is shared; callers
// must not modify it.
func (o *Oracle) TreeAt(dst, ep int32) Tree {
	return o.TreeAtPlane(dst, ep, 0)
}

// TreeAtPlane returns the routing tree toward dst during epoch ep on one
// forwarding plane. Plane 0 is canonical; higher planes perturb only the
// route tie-breaks (preference and policy stay Gao–Rexford-valid), so a
// multipath deployment is modeled as a small set of coexisting planes a
// flow hashes onto. The returned tree is shared; callers must not modify
// it.
func (o *Oracle) TreeAtPlane(dst, ep, plane int32) Tree {
	key := treeKey{dst, ep, plane}
	shard, set := o.setOf(key)
	ways := o.slots[set*o.ways : (set+1)*o.ways]
	if e := lookup(ways, key); e != nil {
		return e.tree
	}
	return o.treeMiss(&o.shards[shard], set, ways, key)
}

// lookup returns the entry cached for key in one set's slots, or nil.
func lookup(ways []atomic.Pointer[treeEntry], key treeKey) *treeEntry {
	for i := range ways {
		if e := ways[i].Load(); e != nil && e.key == key {
			return e
		}
	}
	return nil
}

// treeMiss is the slow path: re-check the set (a racing miss may have
// filled it since the lock-free probe), join an in-flight computation, or
// compute the tree and publish it over the set's oldest entry.
func (o *Oracle) treeMiss(sh *treeShard, set int, ways []atomic.Pointer[treeEntry], key treeKey) Tree {
	sh.mu.Lock()
	if e := lookup(ways, key); e != nil {
		sh.mu.Unlock()
		return e.tree
	}
	if c, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		<-c.done
		return c.tree
	}
	c := &treeCall{done: make(chan struct{})}
	sh.inflight[key] = c
	sh.mu.Unlock()

	st := o.epochState(key.epoch)
	psalt := planeSalt(key.plane)
	c.tree = ComputeTree(o.G, key.dst,
		func(link int32) bool { return st.down[link] },
		func(as int32) uint64 { return st.salt[as] ^ psalt })

	e := &treeEntry{key: key, tree: c.tree}
	sh.mu.Lock()
	way := o.oldest[set]
	ways[way].Store(e)
	o.oldest[set] = uint8((int(way) + 1) % len(ways))
	delete(sh.inflight, key)
	sh.mu.Unlock()
	close(c.done)
	o.computes.Add(1)
	return c.tree
}

// epochState returns the flattened timeline state for ep, building and
// caching it on first use. Duplicate concurrent builds are possible and
// harmless: the states are identical and CompareAndSwap keeps one.
func (o *Oracle) epochState(ep int32) *epochState {
	if p := o.epochs[ep].Load(); p != nil {
		return p
	}
	st := &epochState{down: make([]bool, len(o.G.Links)), salt: make([]uint64, len(o.G.ASes))}
	for _, l := range o.TL.DownLinks(ep) {
		if int(l) < len(st.down) {
			st.down[l] = true
		}
	}
	o.TL.EpochSalts(ep, st.salt)
	if o.epochs[ep].CompareAndSwap(nil, st) {
		return st
	}
	return o.epochs[ep].Load()
}

// PathIdxAt returns the AS-index path from src to dst at time t on the
// canonical forwarding plane.
func (o *Oracle) PathIdxAt(src, dst int32, t time.Time) ([]int32, bool) {
	return o.PathIdxAtPlane(src, dst, t, 0)
}

// PathIdxAtPlane returns the AS-index path from src to dst at time t on
// one forwarding plane (see TreeAtPlane). Plane 0 is the canonical path.
func (o *Oracle) PathIdxAtPlane(src, dst int32, t time.Time, plane int32) ([]int32, bool) {
	o.queries.Add(1)
	ep := o.TL.EpochAt(t)
	return o.TreeAtPlane(dst, ep, plane).Path(src, dst)
}

// PathAt returns the ASN path from src to dst at time t.
func (o *Oracle) PathAt(src, dst topology.ASN, t time.Time) ([]topology.ASN, bool) {
	si, ok := o.G.Index(src)
	if !ok {
		return nil, false
	}
	di, ok := o.G.Index(dst)
	if !ok {
		return nil, false
	}
	idxPath, ok := o.PathIdxAt(si, di, t)
	if !ok {
		return nil, false
	}
	return o.ToASNs(idxPath), true
}

// ToASNs converts an AS-index path to ASNs.
func (o *Oracle) ToASNs(idxPath []int32) []topology.ASN {
	out := make([]topology.ASN, len(idxPath))
	for i, idx := range idxPath {
		out[i] = o.G.ASes[idx].ASN
	}
	return out
}

// Stats reports cache behaviour: total path queries and trees computed.
func (o *Oracle) Stats() (queries, treeComputes int) {
	return int(o.queries.Load()), int(o.computes.Load())
}

// Cap returns the tree cache's total capacity across shards.
func (o *Oracle) Cap() int { return len(o.slots) }

// CachedTrees returns the number of trees currently cached.
func (o *Oracle) CachedTrees() int {
	n := 0
	for i := range o.slots {
		if o.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

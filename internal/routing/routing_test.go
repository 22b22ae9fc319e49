package routing

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"churntomo/internal/topology"
)

func graph(t testing.TB, seed uint64, ases int) *topology.Graph {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: seed, ASes: ases})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func noDown(int32) bool     { return false }
func zeroSalt(int32) uint64 { return 0 }

func TestComputeTreeAllReachable(t *testing.T) {
	g := graph(t, 1, 200)
	for dst := int32(0); dst < 20; dst++ {
		tree := ComputeTree(g, dst, noDown, zeroSalt)
		for src := range tree {
			path, ok := tree.Path(int32(src), dst)
			if !ok {
				t.Fatalf("no route %v -> %v in failure-free topology",
					g.ASes[src].ASN, g.ASes[dst].ASN)
			}
			if path[0] != int32(src) || path[len(path)-1] != dst {
				t.Fatalf("path endpoints wrong: %v", path)
			}
		}
	}
}

func TestComputeTreeValleyFree(t *testing.T) {
	g := graph(t, 2, 250)
	for dst := int32(0); dst < int32(len(g.ASes)); dst += 17 {
		tree := ComputeTree(g, dst, noDown, zeroSalt)
		for src := int32(0); src < int32(len(g.ASes)); src += 7 {
			path, ok := tree.Path(src, dst)
			if !ok {
				t.Fatalf("unreachable %d->%d", src, dst)
			}
			if !ValleyFree(g, path) {
				names := make([]string, len(path))
				for i, p := range path {
					names[i] = g.ASes[p].ASN.String() + "/" + g.ASes[p].Role.String()
				}
				t.Fatalf("path violates valley-freeness: %v", names)
			}
		}
	}
}

func TestComputeTreeCustomerPreference(t *testing.T) {
	// Hand-built diamond: stub S has provider T (transit) and peer route
	// options; the customer route must win even when longer.
	//
	//       P1 --- P2      (tier-1 peers)
	//       |       |
	//       T1     T2
	//        \     /
	//         \   /
	//    D --- T1 (D is T1's customer), S is T2's customer.
	// S -> D must descend via T2's... actually verify against an
	// exhaustively-checked small generated graph instead: for every chosen
	// route, no strictly-preferred alternative may exist among neighbors.
	g := graph(t, 3, 120)
	dst := int32(5)
	tree := ComputeTree(g, dst, noDown, zeroSalt)

	// Recompute phases for verification.
	phase := make([]uint8, len(g.ASes))
	dist := make([]int32, len(g.ASes))
	for u := range g.ASes {
		path, ok := tree.Path(int32(u), dst)
		if !ok {
			t.Fatalf("unreachable %d", u)
		}
		dist[u] = int32(len(path) - 1)
		if int32(u) == dst {
			phase[u] = phaseCustomer
			continue
		}
		rel, _ := relBetween(g, int32(u), tree[u])
		switch rel {
		case topology.RelCustomer:
			phase[u] = phaseCustomer
		case topology.RelPeer:
			phase[u] = phasePeer
		case topology.RelProvider:
			phase[u] = phaseProvider
		}
	}
	for u := range g.ASes {
		if int32(u) == dst {
			continue
		}
		for _, nb := range g.Neighbors[u] {
			// If a neighbor offers a strictly more preferred route class
			// than the one chosen, the decision process was violated.
			// A customer-learned route is exportable to anyone; u hears it
			// if nb would export (nb has customer route toward dst).
			if phase[nb.Idx] != phaseCustomer || tree[nb.Idx] == int32(u) {
				continue // nb offers nothing, or would loop through u
			}
			var offered uint8
			switch nb.Rel {
			case topology.RelCustomer:
				offered = phaseCustomer
			case topology.RelPeer:
				offered = phasePeer
			case topology.RelProvider:
				offered = phaseProvider
			}
			if offered < phase[u] {
				t.Fatalf("AS %v chose %d-class route but neighbor %v offered class %d",
					g.ASes[u].ASN, phase[u], g.ASes[nb.Idx].ASN, offered)
			}
			if offered == phase[u] && dist[nb.Idx]+1 < dist[u] {
				t.Fatalf("AS %v chose dist %d but neighbor %v offered %d (same class)",
					g.ASes[u].ASN, dist[u], g.ASes[nb.Idx].ASN, dist[nb.Idx]+1)
			}
		}
	}
}

func TestComputeTreeLinkFailureReroutes(t *testing.T) {
	g := graph(t, 4, 200)
	dst := int32(10)
	base := ComputeTree(g, dst, noDown, zeroSalt)

	// Fail the link used by some src's first hop; the route must change or
	// become unreachable, and no path may cross the failed link.
	src := int32(100)
	var failed int32 = -1
	for _, nb := range g.Neighbors[src] {
		if nb.Idx == base[src] {
			failed = nb.Link
			break
		}
	}
	if failed < 0 {
		t.Fatal("could not locate first-hop link")
	}
	down := func(l int32) bool { return l == failed }
	rerouted := ComputeTree(g, dst, down, zeroSalt)
	if rerouted[src] == base[src] {
		t.Fatal("route unchanged after first-hop link failure")
	}
	for u := range rerouted {
		if rerouted[u] == Unreachable || int32(u) == dst {
			continue
		}
		for _, nb := range g.Neighbors[u] {
			if nb.Idx == rerouted[u] && nb.Link == failed {
				t.Fatalf("tree uses failed link at AS %v", g.ASes[u].ASN)
			}
		}
	}
}

func TestSaltChangesTiebreakOnly(t *testing.T) {
	g := graph(t, 5, 300)
	dst := int32(3)
	a := ComputeTree(g, dst, noDown, zeroSalt)
	b := ComputeTree(g, dst, noDown, func(as int32) uint64 { return 0xdeadbeef })
	// Both must be valid and fully reachable; some next hops should differ
	// (multi-homed ASes with ties), but path lengths per class must match.
	diff := 0
	for u := range a {
		pa, oka := a.Path(int32(u), dst)
		pb, okb := b.Path(int32(u), dst)
		if !oka || !okb {
			t.Fatalf("unreachable under some salt at %d", u)
		}
		if a[u] != b[u] {
			diff++
		}
		if len(pa) != len(pb) {
			// Same preference class may admit equal-length ties only.
			// Lengths can legitimately differ only if the class differs,
			// which zero-vs-nonzero salt cannot cause. Flag it.
			relA, _ := relBetween(g, int32(u), a[u])
			relB, _ := relBetween(g, int32(u), b[u])
			if relA == relB {
				t.Fatalf("salt changed path length %d->%d for AS %v (rel %v)",
					len(pa), len(pb), g.ASes[u].ASN, relA)
			}
		}
	}
	if diff == 0 {
		t.Error("salt change produced identical trees; tie-break inert")
	}
}

func TestTimelineEpochs(t *testing.T) {
	g := graph(t, 6, 150)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 2, 0)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 1, Start: start, End: end})
	if err != nil {
		t.Fatalf("GenTimeline: %v", err)
	}
	if tl.NumEpochs() < 10 {
		t.Fatalf("only %d epochs in two months; churn generator inert", tl.NumEpochs())
	}
	if got := tl.EpochAt(start.Add(-time.Hour)); got != 0 {
		t.Errorf("EpochAt before start = %d", got)
	}
	// Epochs are time-ordered and EpochAt inverts EpochStart.
	for ep := int32(0); ep < int32(tl.NumEpochs()); ep++ {
		if got := tl.EpochAt(tl.EpochStart(ep)); got != ep {
			t.Fatalf("EpochAt(EpochStart(%d)) = %d", ep, got)
		}
	}
}

func TestTimelineDownLinksConsistent(t *testing.T) {
	g := graph(t, 7, 150)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 2, Start: start, End: start.AddDate(0, 3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	sawDown := false
	for ep := int32(0); ep < int32(tl.NumEpochs()); ep++ {
		down := tl.DownLinks(ep)
		for i := 1; i < len(down); i++ {
			if down[i-1] >= down[i] {
				t.Fatalf("epoch %d down links unsorted", ep)
			}
		}
		for _, l := range down {
			sawDown = true
			if !tl.LinkDownAt(l, ep) {
				t.Fatalf("LinkDownAt disagrees with DownLinks at epoch %d", ep)
			}
		}
		if len(down) > 0 && tl.LinkDownAt(down[len(down)-1]+1_000_000, ep) {
			t.Fatal("LinkDownAt true for absent link")
		}
	}
	if !sawDown {
		t.Error("no epoch had any down link in three months")
	}
}

func TestTimelineSalts(t *testing.T) {
	g := graph(t, 8, 150)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 3, Start: start, End: start.AddDate(1, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Different ASes get different base salts.
	if tl.SaltAt(1, 0) == tl.SaltAt(2, 0) {
		t.Error("two ASes share a base salt")
	}
	// Some AS must have experienced a shift across the year.
	shifted := false
	last := int32(tl.NumEpochs() - 1)
	for as := int32(0); as < int32(len(g.ASes)); as++ {
		if tl.SaltAt(as, 0) != tl.SaltAt(as, last) {
			shifted = true
			break
		}
	}
	if !shifted {
		t.Error("no policy shift over a year")
	}
}

func TestTimelineInvalidRange(t *testing.T) {
	g := graph(t, 9, 100)
	now := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	if _, err := GenTimeline(g, TimelineConfig{Start: now, End: now}); err == nil {
		t.Error("empty timeline accepted")
	}
}

func TestOraclePathsAndChurn(t *testing.T) {
	g := graph(t, 10, 250)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(1, 0, 0)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 4, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g, tl, 512)

	src := g.ASes[40].ASN
	dst := g.ASes[200].ASN
	distinct := map[string]bool{}
	ok0 := 0
	for d := 0; d < 365; d++ {
		at := start.AddDate(0, 0, d).Add(7 * time.Hour)
		path, ok := o.PathAt(src, dst, at)
		if !ok {
			continue
		}
		ok0++
		key := ""
		for _, a := range path {
			key += a.String() + ">"
		}
		distinct[key] = true
		if path[0] != src || path[len(path)-1] != dst {
			t.Fatalf("bad endpoints: %v", path)
		}
	}
	if ok0 < 300 {
		t.Errorf("only %d/365 days had a route; topology too fragile", ok0)
	}
	if len(distinct) < 2 {
		t.Errorf("no path churn over a year for (%v,%v)", src, dst)
	}
	q, c := o.Stats()
	if q == 0 || c == 0 || c > q {
		t.Errorf("odd oracle stats: queries=%d computes=%d", q, c)
	}
}

func TestOracleCacheReuse(t *testing.T) {
	g := graph(t, 11, 150)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 5, Start: start, End: start.AddDate(0, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g, tl, 512)
	at := start.Add(time.Hour)
	for i := 0; i < 50; i++ {
		if _, ok := o.PathIdxAt(int32(i), 99, at); !ok {
			t.Fatalf("unreachable %d->99", i)
		}
	}
	_, computes := o.Stats()
	if computes != 1 {
		t.Errorf("expected 1 tree computation for repeated epoch/dst, got %d", computes)
	}
}

func TestOracleUnknownASN(t *testing.T) {
	g := graph(t, 12, 100)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, _ := GenTimeline(g, TimelineConfig{Seed: 6, Start: start, End: start.AddDate(0, 1, 0)})
	o := NewOracle(g, tl, 16)
	if _, ok := o.PathAt(topology.ASN(987654321), g.ASes[0].ASN, start); ok {
		t.Error("path from unknown ASN succeeded")
	}
	if _, ok := o.PathAt(g.ASes[0].ASN, topology.ASN(987654321), start); ok {
		t.Error("path to unknown ASN succeeded")
	}
}

// TestOracleEviction fills an oracle whose cache holds one tree per shard
// past its capacity and checks that the cache stays bounded, that eviction
// prefers stale entries, and that evicted trees recompute correctly.
func TestOracleEviction(t *testing.T) {
	g := graph(t, 13, 150)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 8, Start: start, End: start.AddDate(0, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g, tl, 1) // clamps to one tree per shard
	if o.Cap() != oracleShards {
		t.Fatalf("Cap() = %d, want %d", o.Cap(), oracleShards)
	}
	at := start.Add(time.Hour)
	// Far more destinations than capacity: every shard must evict.
	for dst := int32(0); dst < int32(len(g.ASes)); dst++ {
		if _, ok := o.PathIdxAt(0, dst, at); !ok && dst != 0 {
			// Some dst may be unreachable from 0; the tree is still cached.
			continue
		}
	}
	if got := o.CachedTrees(); got > o.Cap() {
		t.Errorf("cache holds %d trees, capacity %d", got, o.Cap())
	}
	// Recompute an early destination: must still answer identically.
	want := ComputeTree(g, 5,
		func(l int32) bool { return tl.LinkDownAt(l, tl.EpochAt(at)) },
		func(a int32) uint64 { return tl.SaltAt(a, tl.EpochAt(at)) })
	got := o.TreeAt(5, tl.EpochAt(at))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("re-fetched tree differs at node %d", i)
		}
	}

	// A full set evicts its oldest entry: fill one set with ways+1 keys in
	// order; only the first must recompute.
	o = NewOracle(g, tl, oracleWays*oracleShards)
	if o.ways != oracleWays || o.setsPerShard != 1 {
		t.Fatalf("layout %d ways x %d sets per shard, want %d x 1", o.ways, o.setsPerShard, oracleWays)
	}
	var same []treeKey
	for dst := int32(0); len(same) <= oracleWays; dst++ {
		k := treeKey{dst: dst % int32(len(g.ASes)), epoch: 0, plane: dst / int32(len(g.ASes))}
		if _, set := o.setOf(k); set == 0 {
			same = append(same, k)
		}
	}
	recomputes := func(k treeKey) bool {
		_, before := o.Stats()
		o.TreeAtPlane(k.dst, k.epoch, k.plane)
		_, after := o.Stats()
		return after > before
	}
	for _, k := range same {
		recomputes(k)
	}
	for _, k := range same[1:] {
		if recomputes(k) {
			t.Errorf("key %+v recomputed although newer than the set's oldest", k)
		}
	}
	if !recomputes(same[0]) {
		t.Error("a full set kept its oldest entry")
	}
}

// TestOracleEvictionConcurrentMatchesComputeTree runs an oracle holding
// one tree per shard from many goroutines over a key space far larger than
// its capacity, so nearly every query evicts (run it under -race). Every
// tree returned must equal ComputeTree's from scratch.
func TestOracleEvictionConcurrentMatchesComputeTree(t *testing.T) {
	g := graph(t, 15, 120)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 12, Start: start, End: start.AddDate(0, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g, tl, 1)
	epochs := min(int32(tl.NumEpochs()), 12)
	var keys []treeKey
	want := map[treeKey]Tree{}
	for plane := int32(0); plane < 2; plane++ {
		for ep := int32(0); ep < epochs; ep++ {
			for dst := int32(0); dst < int32(len(g.ASes)); dst += 3 {
				k := treeKey{dst, ep, plane}
				keys = append(keys, k)
				want[k] = ComputeTree(g, dst,
					func(l int32) bool { return tl.LinkDownAt(l, ep) },
					func(a int32) uint64 { return tl.SaltAt(a, ep) ^ planeSalt(plane) })
			}
		}
	}
	if len(keys) < 8*o.Cap() {
		t.Fatalf("%d keys do not overflow a capacity of %d", len(keys), o.Cap())
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range keys {
				// Each worker walks the keys from its own offset and
				// stride, so hits, misses and coalesced misses interleave.
				k := keys[(w*len(keys)/workers+i*(2*w+1))%len(keys)]
				got, ref := o.TreeAtPlane(k.dst, k.epoch, k.plane), want[k]
				for n := range ref {
					if got[n] != ref[n] {
						t.Errorf("tree %+v differs from ComputeTree at node %d", k, n)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := o.CachedTrees(); got > o.Cap() {
		t.Errorf("cache holds %d trees, capacity %d", got, o.Cap())
	}
	if _, c := o.Stats(); c <= len(keys) {
		t.Errorf("%d computes for %d keys: the cache never evicted", c, len(keys))
	}
}

// TestOracleTreeAtStress hammers TreeAt from many goroutines across a key
// space chosen to exercise all three paths of the new lock scheme — snapshot
// hits, misses with eviction pressure, and inflight coalescing (every
// goroutine starts on the same cold keys) — under -race. Every answer must
// be the shared cached tree: bit-identical across goroutines.
func TestOracleTreeAtStress(t *testing.T) {
	g := graph(t, 14, 200)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 11, Start: start, End: start.AddDate(0, 2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Capacity far below the working set so eviction churns concurrently
	// with hits and coalesced misses.
	o := NewOracle(g, tl, 128)
	epochs := int32(tl.NumEpochs())
	if epochs > 64 {
		epochs = 64
	}

	const workers = 16
	var wg sync.WaitGroup
	results := make([][]int32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums := make([]int32, 0, 64*int(epochs))
			for dst := int32(0); dst < 64; dst++ {
				for ep := int32(0); ep < epochs; ep++ {
					tree := o.TreeAt(dst%int32(len(g.ASes)), ep)
					var sum int32
					for _, nh := range tree {
						sum += nh
					}
					sums = append(sums, sum)
				}
			}
			results[w] = sums
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(results[w]) != len(results[0]) {
			t.Fatalf("worker %d saw %d results, worker 0 saw %d", w, len(results[w]), len(results[0]))
		}
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d diverged from worker 0 at query %d", w, i)
			}
		}
	}
	q, c := o.Stats()
	if q != 0 {
		t.Errorf("TreeAt must not count path queries, got %d", q)
	}
	if c == 0 {
		t.Error("no trees computed?")
	}
}

// BenchmarkOracleTreeAtHit measures the lock-free hit path: one hot key
// served over and over — the case the measurement workers hammer.
func BenchmarkOracleTreeAtHit(b *testing.B) {
	g := graph(b, 22, 500)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 7, Start: start, End: start.AddDate(0, 1, 0)})
	if err != nil {
		b.Fatal(err)
	}
	o := NewOracle(g, tl, 4096)
	o.TreeAt(100, 0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			o.TreeAt(100, 0)
		}
	})
}

// BenchmarkOracleTreeAtMiss measures a cache miss in steady state: every
// query is a key never seen before, so each one computes a tree and evicts.
// The graph is small so the cache's own cost shows next to ComputeTree's;
// that cost must not grow with the capacity.
func BenchmarkOracleTreeAtMiss(b *testing.B) {
	g := graph(b, 23, 60)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 7, Start: start, End: start.AddDate(0, 1, 0)})
	if err != nil {
		b.Fatal(err)
	}
	n, epochs := len(g.ASes), tl.NumEpochs()
	query := func(o *Oracle, i int) {
		o.TreeAtPlane(int32(i%n), int32(i/n%epochs), int32(i/(n*epochs)))
	}
	for _, capacity := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			o := NewOracle(g, tl, capacity)
			for i := 0; i < 2*capacity; i++ { // fill every set
				query(o, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(o, 2*capacity+i)
			}
		})
	}
}

func BenchmarkComputeTree(b *testing.B) {
	g := graph(b, 20, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeTree(g, int32(i%len(g.ASes)), noDown, zeroSalt)
	}
}

func BenchmarkOraclePathAt(b *testing.B) {
	g := graph(b, 21, 500)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 7, Start: start, End: start.AddDate(1, 0, 0)})
	if err != nil {
		b.Fatal(err)
	}
	o := NewOracle(g, tl, 4096)
	src := g.ASes[50].ASN
	dst := g.ASes[400].ASN
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.PathAt(src, dst, start.Add(time.Duration(i%8760)*time.Hour))
	}
}

// TestOracleConcurrentQueries hammers one oracle from many goroutines —
// the -race canary for the sharded measurement engine — and checks the
// answers match a fresh serial oracle, with misses coalesced so each
// (dst, epoch) tree is computed once despite the contention.
func TestOracleConcurrentQueries(t *testing.T) {
	g := graph(t, 21, 150)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 9, Start: start, End: start.AddDate(0, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	shared := NewOracle(g, tl, 512)
	serial := NewOracle(g, tl, 512)

	type query struct {
		src, dst int32
		at       time.Time
	}
	var queries []query
	for i := 0; i < 200; i++ {
		queries = append(queries, query{
			src: int32(i % 40), dst: int32(90 + i%8),
			at: start.Add(time.Duration(i) * 3 * time.Hour),
		})
	}
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i], _ = serial.PathIdxAt(q.src, q.dst, q.at)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				got, _ := shared.PathIdxAt(q.src, q.dst, q.at)
				if len(got) != len(want[i]) {
					t.Errorf("query %d: concurrent path differs from serial", i)
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("query %d: concurrent path differs at hop %d", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	_, concurrentComputes := shared.Stats()
	_, serialComputes := serial.Stats()
	if concurrentComputes != serialComputes {
		t.Errorf("concurrent oracle computed %d trees, serial %d — misses not coalesced",
			concurrentComputes, serialComputes)
	}
}

func TestOracleNegativeCacheClamped(t *testing.T) {
	g := graph(t, 9, 100)
	startT := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 3, Start: startT, End: startT.AddDate(0, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, trees := range []int{-1, -4096, 0} {
		o := NewOracle(g, tl, trees)
		if o.Cap() != 4096 {
			t.Errorf("NewOracle(%d): cache capacity %d, want default 4096", trees, o.Cap())
		}
		if _, ok := o.PathIdxAt(1, 2, startT.Add(time.Hour)); !ok {
			t.Errorf("NewOracle(%d): no path between connected ASes", trees)
		}
		// A negative capacity must never shrink the cache below its content.
		if o.CachedTrees() == 0 {
			t.Errorf("NewOracle(%d): computed tree not cached", trees)
		}
	}
}

func TestTimelineRegionalOutage(t *testing.T) {
	g := graph(t, 10, 200)
	startT := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	endT := startT.AddDate(0, 2, 0)
	base := TimelineConfig{Seed: 4, Start: startT, End: endT}
	plain, err := GenTimeline(g, base)
	if err != nil {
		t.Fatal(err)
	}

	burst := base
	burst.Outages = []RegionalOutage{{
		Region: topology.RegionAsia, At: 0.5, Duration: 24 * time.Hour, Frac: 1,
	}}
	tl, err := GenTimeline(g, burst)
	if err != nil {
		t.Fatal(err)
	}

	// The burst adds events on top of unchanged background churn.
	if tl.NumEvents() <= plain.NumEvents() {
		t.Fatalf("outage timeline has %d events, baseline %d — burst inert",
			tl.NumEvents(), plain.NumEvents())
	}

	// At the burst instant every Asia-touching link is down (Frac 1).
	at := startT.Add(time.Duration(0.5 * float64(endT.Sub(startT))))
	ep := tl.EpochAt(at.Add(time.Minute))
	down := 0
	for _, link := range g.Links {
		if g.ASes[link.A].Region != topology.RegionAsia && g.ASes[link.B].Region != topology.RegionAsia {
			continue
		}
		if tl.LinkDownAt(link.ID, ep) {
			down++
		}
	}
	if down == 0 {
		t.Fatal("no regional link down during the scheduled burst")
	}

	// Same config, same burst schedule: bit-identical.
	again, err := GenTimeline(g, burst)
	if err != nil {
		t.Fatal(err)
	}
	if again.NumEvents() != tl.NumEvents() || again.NumEpochs() != tl.NumEpochs() {
		t.Errorf("outage timeline nondeterministic: %d/%d events, %d/%d epochs",
			tl.NumEvents(), again.NumEvents(), tl.NumEpochs(), again.NumEpochs())
	}
}

func TestTimelineOutageValidation(t *testing.T) {
	g := graph(t, 11, 60)
	startT := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	base := TimelineConfig{Seed: 5, Start: startT, End: startT.AddDate(0, 1, 0)}
	bad := []RegionalOutage{
		{Region: topology.RegionAsia, At: 1.0, Duration: time.Hour, Frac: 0.5},
		{Region: topology.RegionAsia, At: -0.1, Duration: time.Hour, Frac: 0.5},
		{Region: topology.RegionAsia, At: 0.5, Duration: 0, Frac: 0.5},
		{Region: topology.RegionAsia, At: 0.5, Duration: time.Hour, Frac: 0},
		{Region: topology.RegionAsia, At: 0.5, Duration: time.Hour, Frac: 1.5},
	}
	for i, o := range bad {
		cfg := base
		cfg.Outages = []RegionalOutage{o}
		if _, err := GenTimeline(g, cfg); err == nil {
			t.Errorf("invalid outage %d (%+v) accepted", i, o)
		}
	}
}

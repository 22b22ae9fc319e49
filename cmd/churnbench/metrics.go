package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"slices"

	"churntomo/internal/topology"
)

// metric is one benchmark metric as BENCHMARK.json declares it. Bound is
// the share of the parent's median by which an end-to-end metric may
// worsen before a change counts as a regression; per-layer metrics have
// none.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a churntomo user sees, measured with tracing
// off, each the median over the fresh-process runs of one invocation.
// The time bounds are wide because a shared 2-core host drifts: when the
// hypervisor steals CPU time for minutes, every time stretches with it.
// On a quiet host the medians of ten seeds spread by at most 0.085 of
// their median. Peak RSS does not drift with host speed.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.2},
}

// perLayer are the traced run's per-module metrics. A layer the workload
// bypasses reads 0 (replays never measure, batch runs never stream), and
// so does a latency percentile with fewer than minBeyond samples above it.
var perLayer = []metric{
	{Name: "scenario.build_s", Unit: "s", Better: "lower"},
	{Name: "routing.timeline_s", Unit: "s", Better: "lower"},
	{Name: "routing.epochs", Unit: "count", Better: "lower"},
	{Name: "routing.churn_events", Unit: "count", Better: "lower"},
	{Name: "routing.oracle_queries", Unit: "count", Better: "lower"},
	{Name: "routing.tree_computes", Unit: "count", Better: "lower"},
	{Name: "routing.oracle_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "routing.cached_trees", Unit: "count", Better: "lower"},

	{Name: "iclab.measure_s", Unit: "s", Better: "lower"},
	{Name: "iclab.measure_cpu_s", Unit: "s", Better: "lower"},
	{Name: "iclab.busy_cores", Unit: "cores", Better: "higher"},
	{Name: "iclab.records", Unit: "count", Better: "higher"},
	{Name: "iclab.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "iclab.mallocs", Unit: "count", Better: "lower"},
	{Name: "iclab.gc_cycles", Unit: "count", Better: "lower"},

	{Name: "cpu_share.routing", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.httpsim", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.dnssim", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.blockpage", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.netsim", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.traceroute", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.gc", Unit: "ratio", Better: "lower"},
	{Name: "cpu_share.samples", Unit: "count", Better: "higher"},

	{Name: "dataset.decode_s", Unit: "s", Better: "lower"},
	{Name: "dataset.decode_cpu_s", Unit: "s", Better: "lower"},
	{Name: "dataset.bytes", Unit: "B", Better: "lower"},
	{Name: "dataset.records", Unit: "count", Better: "higher"},
	{Name: "dataset.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "dataset.mallocs", Unit: "count", Better: "lower"},

	{Name: "tomo.build_solve_s", Unit: "s", Better: "lower"},
	{Name: "tomo.build_solve_cpu_s", Unit: "s", Better: "lower"},
	{Name: "tomo.cnfs", Unit: "count", Better: "higher"},
	{Name: "tomo.clauses", Unit: "count", Better: "lower"},
	{Name: "tomo.unique", Unit: "count", Better: "higher"},
	{Name: "tomo.multiple", Unit: "count", Better: "lower"},
	{Name: "tomo.unsat", Unit: "count", Better: "lower"},
	{Name: "tomo.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "tomo.mallocs", Unit: "count", Better: "lower"},
	{Name: "analysis.figure4_s", Unit: "s", Better: "lower"},
	{Name: "churn.measure_s", Unit: "s", Better: "lower"},

	{Name: "stream.push_s", Unit: "s", Better: "lower"},
	{Name: "stream.push_cpu_s", Unit: "s", Better: "lower"},
	{Name: "stream.window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.window_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.windows", Unit: "count", Better: "higher"},
	{Name: "stream.cnfs_solved", Unit: "count", Better: "lower"},
	{Name: "stream.cnfs_reused", Unit: "count", Better: "higher"},
	{Name: "stream.reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "stream.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "stream.mallocs", Unit: "count", Better: "lower"},

	{Name: "gc.cycles", Unit: "count", Better: "lower"},
	{Name: "gc.pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.coverage_frac", Unit: "ratio", Better: "higher"},
}

// value is one reported metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills every declared metric from measured values; a metric the
// run did not measure reads 0. encoding/json writes map keys sorted, so
// the result line's metric order is stable.
func report(declared []metric, measured map[string]float64) map[string]value {
	out := make(map[string]value, len(declared))
	for _, m := range declared {
		out[m.Name] = value{Value: measured[m.Name], Unit: m.Unit}
	}
	return out
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, and
// whether at least minBeyond samples lie above it. A percentile with
// fewer samples beyond it is not reported: with one sample, p50 and p95
// would read the same number and say nothing about the tail.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], true
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (a bypassed layer).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest is a run's output fingerprint: what every timed run must
// reproduce exactly. Windows holds each streaming window's identified
// set in emission order; batch runs have none.
type digest struct {
	Records    int        `json:"records"`
	CNFs       int        `json:"cnfs"`
	Identified []uint32   `json:"identified"`
	Windows    [][]uint32 `json:"windows,omitempty"`
}

// sum is the digest's SHA-256 over its JSON form, in hex.
func (d digest) sum() string {
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // a struct of ints and slices always marshals
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// asnSet returns the keys of an identified-censor map as sorted ASNs.
func asnSet[V any](m map[topology.ASN]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for asn := range m {
		out = append(out, uint32(asn))
	}
	slices.Sort(out)
	return out
}

// Package routing computes AS-level paths over a topology under the
// Gao–Rexford policy model and evolves them through a churn timeline of
// link failures, repairs and routing-policy shifts.
//
// Paper correspondence: §2.2/§3's enabler. Churn is the paper's central
// insight — because paths between a vantage point and a destination change
// over time, one (source, destination) pair contributes many distinct
// boolean clauses, substituting for the strategically-placed monitors
// classical boolean tomography assumes. This package is where that churn
// comes from.
//
// Entry points: GenTimeline builds the churn event Timeline; NewOracle
// wraps a Graph and Timeline into the query interface the simulators use
// (PathIdxAt, PathAt, ToASNs); ComputeTree computes a single Gao–Rexford
// routing tree when callers need one directly, and ValleyFree checks the
// policy invariant on any path.
//
// Invariants: trees are pure functions of (graph, timeline, destination,
// epoch), so the Oracle can cache and share them freely. The Oracle is safe
// for concurrent use — the measurement engine's day shards all query one
// instance; hits take no lock, a miss locks only the shard owning its
// cache set and never holds it across tree computation, and concurrent
// misses on the same (destination, epoch) coalesce onto a single
// computation.
package routing

package main

// The child modes. Every timed run, the traced run and the dataset export
// happen in a fresh process of this binary, so no run inherits another's
// warm heap and each has its own peak RSS.

import (
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"time"

	"churntomo"
	"churntomo/internal/analysis"
	"churntomo/internal/churn"
	"churntomo/internal/dataset"
	"churntomo/internal/iclab"
	"churntomo/internal/leakage"
	"churntomo/internal/sat"
	"churntomo/internal/scenario"
	"churntomo/internal/stream"
	"churntomo/internal/timeslice"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
)

// timedResult is one untraced run through the public API.
type timedResult struct {
	Digest digest  `json:"digest"`
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	CPUS   float64 `json:"cpu_s"`
}

// runTimed times New(opts...).Run(ctx) from start to return. Set-up ends
// at the first measure, solve or day event: the world is built, or the
// dataset is loaded.
func runTimed(ctx context.Context, w workload, seed uint64, workers int, dataset string) (*timedResult, error) {
	var t0 time.Time
	var setup time.Duration
	setupDone := false
	observe := func(ev churntomo.Event) {
		if setupDone {
			return
		}
		switch ev.Stage {
		case churntomo.StageMeasure, churntomo.StageSolve, churntomo.StageDay:
			setup, setupDone = time.Since(t0), true
		}
	}
	exp, err := churntomo.New(append(w.options(seed, workers, dataset), churntomo.WithObserver(observe))...)
	if err != nil {
		return nil, err
	}
	cpu0 := processCPU()
	t0 = time.Now()
	res, err := exp.Run(ctx)
	wall := time.Since(t0)
	cpu := processCPU() - cpu0
	if err != nil {
		return nil, err
	}
	if !setupDone {
		return nil, fmt.Errorf("run emitted no measure, solve or day event")
	}
	return &timedResult{Digest: resultDigest(res), WallS: wall.Seconds(), SetupS: setup.Seconds(), CPUS: cpu.Seconds()}, nil
}

// resultDigest fingerprints a public Result.
func resultDigest(res *churntomo.Result) digest {
	d := digest{Records: res.Summary.Measurements, CNFs: res.Summary.CNFs, Identified: asnSet(res.Identified)}
	for _, w := range res.Windows {
		d.Windows = append(d.Windows, asnSet(w.Identified))
	}
	return d
}

// runExport synthesizes the replay workloads' dataset and writes it to
// out; the digest is the direct run's, which a batch replay must match.
func runExport(ctx context.Context, seed uint64, workers int, out string) (*digest, error) {
	exp, err := churntomo.New(churntomo.WithConfig(runConfig(dims.replay, seed, workers)), churntomo.WithScenarioSpec(benchSpec()))
	if err != nil {
		return nil, err
	}
	res, err := exp.Run(ctx)
	if err != nil {
		return nil, err
	}
	tmp := out + ".tmp"
	if err := res.Export(tmp); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, out); err != nil {
		return nil, err
	}
	d := resultDigest(res)
	return &d, nil
}

// tracedResult is the traced run: the reference digest, the per-layer
// metrics and the spans behind them.
type tracedResult struct {
	Digest  digest             `json:"digest"`
	WallS   float64            `json:"wall_s"`
	Metrics map[string]float64 `json:"metrics"`
	// StreamEqualsBatch, on streaming workloads, reports whether the
	// final window equals a batch build+solve over that window's days.
	StreamEqualsBatch bool      `json:"stream_equals_batch"`
	Spans             []spanRow `json:"spans"`
}

// composition is the traced run's state: the pipeline churntomo's Run
// executes, composed from each layer's exported entry points with every
// call timed from outside.
type composition struct {
	ctx     context.Context
	tr      *tracer
	workers int
	m       map[string]float64 // counters read from the layers

	graph   *topology.Graph
	days    [][]iclab.Record // replay: the decoded day batches
	records []iclab.Record
	windows []*stream.Window
	pushMs  []float64 // durations of the pushes that emitted a window
	digest  digest
}

// runTraced runs the workload's composition under the tracer, with a CPU
// profile written to profile when it is not empty. The stream-equals-batch
// check runs after the trace and the profile have stopped.
func runTraced(ctx context.Context, w workload, seed uint64, workers int, dataset, profile string) (*tracedResult, error) {
	c := &composition{ctx: ctx, workers: workers, m: map[string]float64{}}
	var prof *os.File
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		prof = f
	}
	m0 := mark()
	c.tr = newTracer()
	err := c.run(w, seed, dataset)
	wall := time.Since(c.tr.origin)
	m1 := mark()
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	res := &tracedResult{Digest: c.digest, WallS: wall.Seconds(), Spans: c.tr.rows()}
	c.m["gc.cycles"] = float64(m1.gc - m0.gc)
	c.m["gc.pause_ms"] = float64(m1.pause-m0.pause) / 1e6
	c.m["trace.coverage_frac"] = ratio(float64(c.tr.topLevel()), float64(wall))
	c.layerMetrics()
	res.Metrics = c.m
	if w.stream {
		if res.StreamEqualsBatch, err = c.streamEqualsBatch(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// run executes the composition for one workload.
func (c *composition) run(w workload, seed uint64, dataset string) error {
	var err error
	if w.replay {
		err = c.load(dataset)
	} else {
		err = c.synthesize(seed)
	}
	if err != nil {
		return err
	}
	if w.stream {
		if err := c.replayStream(); err != nil {
			return err
		}
	}
	c.tr.do("iclab.merge", func() { c.records = iclab.MergeShards(c.days) })
	if !w.stream {
		if err := c.localize(w.ablation); err != nil {
			return err
		}
	}
	c.tr.do("churn.measure", func() { churn.Measure(c.records, nil) })
	c.tr.do("churn.by_class", func() { churn.ByDestinationClass(c.records, c.graph, timeslice.Month) })
	return nil
}

// stageSpan names the span of one scenario.Build stage.
func stageSpan(st scenario.Stage) string {
	switch st {
	case scenario.StageTopology:
		return "scenario.topology"
	case scenario.StageTimeline:
		return "routing.timeline"
	case scenario.StageCensors:
		return "scenario.censors"
	case scenario.StageIPASMap:
		return "scenario.ipasmap"
	default:
		return "scenario.platform"
	}
}

// synthesize builds the world and measures it, as churntomo's scenario
// source does: scenario.Build with its stage hook timestamped, then
// iclab.RunByDayCtx under the platform configuration churntomo derives
// (seed offset 5). The timed runs' digest check against this composition
// pins that derivation.
func (c *composition) synthesize(seed uint64) error {
	spec := benchSpec()
	cfg := runConfig(dims.synth, seed, c.workers)
	p := scenario.Params{
		Seed: cfg.Seed, ASes: cfg.ASes, Countries: cfg.Countries,
		Vantages: cfg.Vantages, URLs: cfg.URLs,
		Start: cfg.Start, End: cfg.Start.AddDate(0, 0, cfg.Days),
	}
	build := c.tr.begin("scenario.build")
	stage := -1
	world, err := scenario.Build(spec, p, func(st scenario.Stage) error {
		if stage >= 0 {
			c.tr.end(stage)
		}
		stage = c.tr.begin(stageSpan(st))
		return c.ctx.Err()
	})
	if stage >= 0 {
		c.tr.end(stage)
	}
	c.tr.end(build)
	if err != nil {
		return err
	}
	c.graph = world.Graph
	c.m["routing.epochs"] = float64(world.Timeline.NumEpochs())
	c.m["routing.churn_events"] = float64(world.Timeline.NumEvents())

	pc := iclab.PlatformConfig{
		Seed: cfg.Seed + 5, Workers: c.workers,
		URLsPerDay: cfg.URLsPerDay, RepeatsPerDay: cfg.RepeatsPerDay,
	}
	if err := c.tr.call("iclab.measure", func() (err error) {
		// The label marks measurement's CPU samples, goroutines it starts
		// included, so cpu_share can leave the world build out.
		pprof.Do(c.ctx, pprof.Labels(spanLabel, measureSpan), func(ctx context.Context) {
			c.days, err = iclab.RunByDayCtx(ctx, world.Platform, pc)
		})
		return err
	}); err != nil {
		return err
	}
	queries, computes := world.Oracle.Stats()
	c.m["routing.oracle_queries"] = float64(queries)
	c.m["routing.tree_computes"] = float64(computes)
	c.m["routing.oracle_hit_ratio"] = ratio(float64(queries-computes), float64(queries))
	c.m["routing.cached_trees"] = float64(world.Oracle.CachedTrees())
	c.m["iclab.records"] = float64(recordCount(c.days))
	return nil
}

// load decodes the exported dataset and rebuilds the lookup-only AS graph
// the folds need, as churntomo's file source does.
func (c *composition) load(path string) error {
	var f *dataset.File
	if err := c.tr.call("dataset.decode", func() (err error) {
		f, err = dataset.ReadFile(path)
		return err
	}); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	c.m["dataset.bytes"] = float64(st.Size())
	c.m["dataset.records"] = float64(recordCount(f.Days))
	c.days = f.Days
	return c.tr.call("dataset.adopt", func() (err error) {
		c.graph, err = metadataGraph(&f.Header)
		return err
	})
}

// metadataGraph is the dataset header's AS table as a lookup-only graph.
func metadataGraph(h *dataset.Header) (*topology.Graph, error) {
	ases := make([]topology.AS, 0, len(h.ASes))
	for _, m := range h.ASes {
		class, ok := classOf(m.Class)
		if !ok {
			return nil, fmt.Errorf("dataset AS%d carries unknown class %q", m.ASN, m.Class)
		}
		ases = append(ases, topology.AS{ASN: topology.ASN(m.ASN), Name: m.Name, Country: m.Country, Class: class})
	}
	return topology.MetadataGraph(ases), nil
}

// classOf parses a CAIDA-style class name; "" is transit.
func classOf(name string) (topology.Class, bool) {
	if name == "" {
		return topology.ClassTransit, true
	}
	for _, c := range []topology.Class{topology.ClassTransit, topology.ClassContent, topology.ClassEnterprise} {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

func recordCount(days [][]iclab.Record) int {
	n := 0
	for _, d := range days {
		n += len(d)
	}
	return n
}

// localize is the batch path: build and solve every CNF, identify
// censors, analyze leakage and, with the ablation, rebuild Figure 4.
func (c *composition) localize(ablation bool) error {
	var insts []*tomo.Instance
	var outs []tomo.Outcome
	if err := c.tr.call("tomo.build_solve", func() (err error) {
		insts, outs, err = tomo.BuildAndSolveCtx(c.ctx, c.records, tomo.BuildConfig{Workers: c.workers})
		return err
	}); err != nil {
		return err
	}
	var ident map[topology.ASN]*tomo.IdentifiedCensor
	c.tr.do("tomo.identify", func() { ident = tomo.IdentifyCensors(outs, minCNFs) })
	c.tr.do("leakage.analyze", func() { leakage.Analyze(outs, c.graph) })
	if ablation {
		c.tr.do("analysis.figure4", func() { analysis.Figure4(c.records, c.workers) })
	}
	clauses := 0
	for _, in := range insts {
		clauses += len(in.CNF.Clauses)
	}
	c.m["tomo.clauses"] = float64(clauses)
	c.countOutcomes(outs)
	c.digest = digest{Records: len(c.records), CNFs: len(outs), Identified: asnSet(ident)}
	return nil
}

// countOutcomes records the CNF count and its solution trichotomy.
func (c *composition) countOutcomes(outs []tomo.Outcome) {
	c.m["tomo.cnfs"] = float64(len(outs))
	for _, o := range outs {
		switch o.Class {
		case sat.Unique:
			c.m["tomo.unique"]++
		case sat.Multiple:
			c.m["tomo.multiple"]++
		case sat.Unsat:
			c.m["tomo.unsat"]++
		}
	}
}

// replayStream pushes the decoded days through a sliding-window engine
// at stride 1, timing every push, then flushes the tail and analyzes the
// final window's leakage, as churntomo's streaming replay does.
func (c *composition) replayStream() error {
	eng := stream.NewEngine(stream.Config{
		Window: dims.window, Stride: 1, MinCNFs: minCNFs,
		Build: tomo.BuildConfig{Workers: c.workers},
	})
	replay := c.tr.begin("stream.replay")
	for _, recs := range c.days {
		id := c.tr.begin("stream.push")
		win, err := eng.PushCtx(c.ctx, recs)
		c.tr.end(id)
		if err != nil {
			c.tr.end(replay)
			return err
		}
		if win != nil {
			c.windows = append(c.windows, win)
			c.pushMs = append(c.pushMs, float64(c.tr.spans[id].dur())/1e6)
		}
	}
	err := c.tr.call("stream.flush", func() error {
		win, err := eng.FlushCtx(c.ctx)
		if win != nil {
			c.windows = append(c.windows, win)
		}
		return err
	})
	c.tr.end(replay)
	if err != nil {
		return err
	}
	if len(c.windows) == 0 {
		return fmt.Errorf("replay of %d days emitted no window", len(c.days))
	}
	final := c.windows[len(c.windows)-1]
	c.tr.do("leakage.analyze", func() { leakage.Analyze(final.Outcomes, c.graph) })
	c.digest = digest{Records: recordCount(c.days), CNFs: len(final.Outcomes), Identified: asnSet(final.Identified)}
	for _, w := range c.windows {
		c.digest.Windows = append(c.digest.Windows, asnSet(w.Identified))
		c.m["stream.cnfs_solved"] += float64(w.Solved)
		c.m["stream.cnfs_reused"] += float64(w.Reused)
	}
	c.m["stream.windows"] = float64(len(c.windows))
	c.m["stream.reuse_ratio"] = ratio(c.m["stream.cnfs_reused"], c.m["stream.cnfs_solved"]+c.m["stream.cnfs_reused"])
	if p, ok := percentile(c.pushMs, 0.50); ok {
		c.m["stream.window_p50_ms"] = p
	}
	if p, ok := percentile(c.pushMs, 0.90); ok {
		c.m["stream.window_p90_ms"] = p
	}
	return nil
}

// streamEqualsBatch checks the final window against a batch build+solve
// over the same days.
func (c *composition) streamEqualsBatch() (bool, error) {
	final := c.windows[len(c.windows)-1]
	recs := iclab.MergeShards(c.days[final.StartDay : final.EndDay+1])
	_, outs, err := tomo.BuildAndSolveCtx(c.ctx, recs, tomo.BuildConfig{Workers: c.workers})
	if err != nil {
		return false, err
	}
	batch := asnSet(tomo.IdentifyCensors(outs, minCNFs))
	return len(outs) == len(final.Outcomes) && slices.Equal(batch, asnSet(final.Identified)), nil
}

// layerMetrics derives the per-layer metrics from the spans.
func (c *composition) layerMetrics() {
	seconds := func(name string) float64 { return c.tr.total(name).dur().Seconds() }
	work := func(prefix, name string) span {
		t := c.tr.total(name)
		c.m[prefix+"alloc_mb"] = float64(t.AllocBytes) / (1 << 20)
		c.m[prefix+"mallocs"] = float64(t.Mallocs)
		return t
	}
	c.m["scenario.build_s"] = seconds("scenario.build")
	c.m["routing.timeline_s"] = seconds("routing.timeline")

	measure := work("iclab.", "iclab.measure")
	c.m["iclab.measure_s"] = measure.dur().Seconds()
	c.m["iclab.measure_cpu_s"] = measure.CPU.Seconds()
	c.m["iclab.busy_cores"] = ratio(float64(measure.CPU), float64(measure.dur()))
	c.m["iclab.gc_cycles"] = float64(measure.GCCycles)

	decode := work("dataset.", "dataset.decode")
	c.m["dataset.decode_s"] = decode.dur().Seconds()
	c.m["dataset.decode_cpu_s"] = decode.CPU.Seconds()

	solve := work("tomo.", "tomo.build_solve")
	c.m["tomo.build_solve_s"] = solve.dur().Seconds()
	c.m["tomo.build_solve_cpu_s"] = solve.CPU.Seconds()
	c.m["analysis.figure4_s"] = seconds("analysis.figure4")
	c.m["churn.measure_s"] = seconds("churn.measure")

	push, flush := c.tr.total("stream.push"), c.tr.total("stream.flush")
	c.m["stream.push_s"] = (push.dur() + flush.dur()).Seconds()
	c.m["stream.push_cpu_s"] = (push.CPU + flush.CPU).Seconds()
	c.m["stream.alloc_mb"] = float64(push.AllocBytes+flush.AllocBytes) / (1 << 20)
	c.m["stream.mallocs"] = float64(push.Mallocs + flush.Mallocs)
}

package main

import (
	"fmt"
	"time"

	"churntomo"
	"churntomo/internal/censor"
	"churntomo/internal/iclab"
	"churntomo/internal/routing"
	"churntomo/internal/scenario"
	"churntomo/internal/topology"
)

// workload is one closed-loop benchmark input: which source feeds
// churntomo and how it is localized.
type workload struct {
	name string
	why  string
	// replay reads a dataset the benchmark exported beforehand instead
	// of synthesizing the world; stream localizes it through a sliding
	// window instead of in one batch; ablation adds the Figure 4 no-churn
	// rebuild, as churnlab's default report does.
	replay, stream, ablation bool
}

// workloads are the benchmark's inputs; the why lines are the ones
// BENCHMARK.json records.
var workloads = []workload{
	{
		name:     "synth-batch",
		why:      "pinned paper-baseline world, 30 days x 1,600 = 48k records, ~2.1k CNFs, batch with the Figure 4 ablation; measurement over the routing oracle is ~70% of a run",
		ablation: true,
	},
	{
		name:     "replay-batch",
		why:      "batch replay with the ablation of an exported 110-day dataset (88k records, 0.8 MB, ~5.3k CNFs); no measurement or routing, so decode, CNF build/solve and folds do the work",
		replay:   true,
		ablation: true,
	},
	{
		name:   "replay-stream",
		why:    "the same dataset through a 10-day window at stride 1 (101 windows), so every push retracts a day from the incremental solver",
		replay: true,
		stream: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// dimensions fix the world sizes of the workloads.
type dimensions struct {
	// synth sizes synth-batch's world and replay the exported dataset's;
	// Seed and Workers are set per run.
	synth, replay churntomo.Config
	// window is replay-stream's window width in days.
	window int
}

// start anchors every world's measurement period (churntomo's default).
var start = time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)

// dims are the measured sizes: DefaultConfig's topology and platform over
// shortened periods, the replay dataset testing half as many URLs a day.
// The harness's tests shrink them.
var dims = dimensions{
	synth: churntomo.Config{
		ASes: 400, Countries: 30, Vantages: 40, URLs: 80, URLsPerDay: 20, RepeatsPerDay: 2, Days: 30,
	},
	replay: churntomo.Config{
		ASes: 400, Countries: 30, Vantages: 40, URLs: 80, URLsPerDay: 10, RepeatsPerDay: 2, Days: 110,
	},
	window: 10,
}

// runConfig completes size into a run's configuration; the world itself
// comes from benchSpec.
func runConfig(size churntomo.Config, seed uint64, workers int) churntomo.Config {
	size.Seed, size.Workers, size.Start = seed, workers, start
	return size
}

// substrateSeed pins the simulated Internet every workload measures: the
// topology, churn timeline, censors, vantages and targets of the
// paper-baseline world churnlab builds by default. How much work a run
// does depends heavily on that world (across four seeds the routing
// oracle's hit ratio ranged 60-87% and the CNF count 2.5k-7.5k), so the
// benchmark seed draws only the measurement campaign over it: the
// schedule's times, the measurement noise and the IP-to-AS history.
const substrateSeed = 1

// benchSpec is the paper-baseline scenario with every provider axis
// drawing from substrateSeed, at the per-stage offset scenario.Build
// hands it.
func benchSpec() scenario.Spec {
	return scenario.Spec{
		Name:     "paper-baseline-pinned",
		Topology: pinnedTopology{scenario.PaperTopology},
		Churn:    pinnedChurn{scenario.PaperChurn},
		Censors:  pinnedCensors{scenario.PaperCensors},
		Platform: pinnedPlatform{scenario.PaperPlatform},
	}
}

// pinned re-bases a provider's seed from the run's seed onto substrateSeed.
func pinned(seed uint64, p scenario.Params) uint64 { return seed - p.Seed + substrateSeed }

type pinnedTopology struct{ scenario.TopologyProvider }

func (t pinnedTopology) Topology(seed uint64, p scenario.Params) (*topology.Graph, error) {
	return t.TopologyProvider.Topology(pinned(seed, p), p)
}

type pinnedChurn struct{ scenario.ChurnProcess }

func (c pinnedChurn) Timeline(g *topology.Graph, seed uint64, p scenario.Params) (*routing.Timeline, error) {
	return c.ChurnProcess.Timeline(g, pinned(seed, p), p)
}

type pinnedCensors struct{ scenario.CensorRegime }

func (c pinnedCensors) Censors(g *topology.Graph, seed uint64, p scenario.Params) (*censor.Registry, error) {
	return c.CensorRegime.Censors(g, pinned(seed, p), p)
}

type pinnedPlatform struct{ scenario.PlatformProfile }

func (pp pinnedPlatform) Platform(w *scenario.World, seed uint64, p scenario.Params) (*iclab.Scenario, error) {
	return pp.PlatformProfile.Platform(w, pinned(seed, p), p)
}

// minCNFs is churntomo's default corroboration threshold, which the
// traced composition passes to tomo.IdentifyCensors and stream.Config.
const minCNFs = 8

// options are the New options of one timed run. dataset is the exported
// file a replay reads.
func (w workload) options(seed uint64, workers int, dataset string) []churntomo.Option {
	var opts []churntomo.Option
	if w.replay {
		opts = append(opts, churntomo.WithInput(dataset), churntomo.WithWorkers(workers))
	} else {
		opts = append(opts, churntomo.WithConfig(runConfig(dims.synth, seed, workers)), churntomo.WithScenarioSpec(benchSpec()))
	}
	if w.stream {
		opts = append(opts, churntomo.WithWindow(dims.window), churntomo.WithStride(1))
	}
	if w.ablation {
		opts = append(opts, churntomo.WithChurnAblation())
	}
	return opts
}

package churntomo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// --- Option and StreamConfig validation -----------------------------------

func TestNewValidatesOptions(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string // substring of the error
	}{
		{"negative workers", []Option{WithWorkers(-1)}, "WithWorkers"},
		{"negative window", []Option{WithWindow(-5)}, "WithWindow"},
		{"negative stride", []Option{WithStride(-2)}, "WithStride"},
		{"zero days", []Option{WithDays(0)}, "WithDays"},
		{"negative mincnfs", []Option{WithMinCNFs(-1)}, "WithMinCNFs"},
		{"zero seed sweep", []Option{WithSeedSweep(0)}, "WithSeedSweep"},
		{"empty scale sweep", []Option{WithScaleSweep()}, "WithScaleSweep"},
		{"negative scale factor", []Option{WithScaleSweep(1, -0.5)}, "WithScaleSweep"},
		{"empty configs", []Option{WithConfigs()}, "WithConfigs"},
		{"negative matrix workers", []Option{WithMatrixWorkers(-3)}, "WithMatrixWorkers"},
		{"nil observer", []Option{WithObserver(nil)}, "WithObserver"},
		{"nil option", []Option{nil}, "nil Option"},
		{"streaming plus matrix", []Option{WithWindow(7), WithSeedSweep(3)}, "mutually exclusive"},
		{"two matrix shapes", []Option{WithSeedSweep(2), WithScaleSweep(0.5, 1)}, "at most one"},
	}
	for _, tc := range cases {
		_, err := New(tc.opts...)
		if err == nil {
			t.Errorf("%s: New accepted invalid options", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestNewModeResolution(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want Mode
	}{
		{"default", nil, ModeBatch},
		{"window", []Option{WithWindow(7)}, ModeStreaming},
		{"stride only", []Option{WithStride(3)}, ModeStreaming},
		{"cumulative", []Option{WithStreaming()}, ModeStreaming},
		{"seed sweep", []Option{WithSeedSweep(4)}, ModeMatrix},
		{"seed sweep of one", []Option{WithSeedSweep(1)}, ModeBatch},
		{"scale sweep", []Option{WithScaleSweep(0.5, 1, 2)}, ModeMatrix},
		{"explicit cells", []Option{WithConfigs(SmallConfig())}, ModeMatrix},
	}
	for _, tc := range cases {
		e, err := New(tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e.Mode() != tc.want {
			t.Errorf("%s: mode %v, want %v", tc.name, e.Mode(), tc.want)
		}
	}
}

func TestStreamConfigValidate(t *testing.T) {
	r := &Runner{}
	for _, sc := range []StreamConfig{{Window: -1}, {Stride: -7}, {MinCNFs: -2}} {
		if err := sc.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", sc)
		}
		// StreamSweep must reject before doing any work.
		if _, err := r.StreamSweep(testConfig(), sc); err == nil {
			t.Errorf("StreamSweep accepted %+v", sc)
		}
	}
	if err := (StreamConfig{Window: 10, Stride: 2, MinCNFs: 3}).Validate(); err != nil {
		t.Errorf("Validate rejected a valid config: %v", err)
	}
}

// --- Shim equivalence ------------------------------------------------------

// identifiedBytes flattens an identification map into a deterministic byte
// string, so "byte-identical" is literal.
func identifiedBytes(identified map[ASN]*IdentifiedCensor) []byte {
	asns := make([]ASN, 0, len(identified))
	for asn := range identified {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	var buf bytes.Buffer
	for _, asn := range asns {
		c := identified[asn]
		urls := make([]string, 0, len(c.URLs))
		for u := range c.URLs {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		fmt.Fprintf(&buf, "%v kinds=%v cnfs=%d urls=%v\n", asn, c.Kinds, c.CNFs, urls)
	}
	return buf.Bytes()
}

// TestExperimentMatchesLegacyRun pins the deprecated shims to the new
// entry point: churntomo.Run(cfg), the manual Prepare/Measure/Localize
// sequence (the pre-Experiment code path, still live), and
// New(WithConfig(cfg)).Run(ctx) must produce byte-identical Identified
// maps.
func TestExperimentMatchesLegacyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()

	shim, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	manual, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	manual.Measure()
	manual.Localize()

	exp, err := New(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeBatch {
		t.Fatalf("mode %v, want batch", res.Mode)
	}

	want := identifiedBytes(manual.Identified)
	if got := identifiedBytes(shim.Identified); !bytes.Equal(got, want) {
		t.Errorf("Run shim diverges from manual pipeline:\n%s\nvs\n%s", got, want)
	}
	if got := identifiedBytes(res.Identified); !bytes.Equal(got, want) {
		t.Errorf("Experiment diverges from manual pipeline:\n%s\nvs\n%s", got, want)
	}

	// The public Censors view carries the same identifications.
	if len(res.Censors) != len(res.Identified) {
		t.Fatalf("%d Censors for %d Identified", len(res.Censors), len(res.Identified))
	}
	for _, c := range res.Censors {
		raw := res.Identified[c.ASN]
		if raw == nil || raw.CNFs != c.CNFs || raw.Kinds != c.Kinds || len(raw.URLs) != len(c.URLs) {
			t.Errorf("censor %v diverges from its Identified record", c.ASN)
		}
		if c.Name == "" || c.Country == "" {
			t.Errorf("censor %v missing topology context (%q, %q)", c.ASN, c.Name, c.Country)
		}
	}

	// Summary agrees with the pipeline artifacts.
	if res.Summary.Measurements != manual.Dataset.Stats.Measurements {
		t.Errorf("Summary.Measurements %d, want %d", res.Summary.Measurements, manual.Dataset.Stats.Measurements)
	}
	if res.Summary.CNFs != len(manual.Outcomes) {
		t.Errorf("Summary.CNFs %d, want %d", res.Summary.CNFs, len(manual.Outcomes))
	}
	if got := res.Summary.UnsatCNFs + res.Summary.UniqueCNFs + res.Summary.MultipleCNFs; got != res.Summary.CNFs {
		t.Errorf("CNF class split sums to %d of %d", got, res.Summary.CNFs)
	}
	if res.Leakage == nil {
		t.Fatal("batch result has no leakage summary")
	}
	if res.Leakage.LeakToOtherASes != manual.Leakage.LeakToOtherASes() ||
		res.Leakage.LeakToOtherCountries != manual.Leakage.LeakToOtherCountries() {
		t.Errorf("leakage summary (%d,%d) diverges from analysis (%d,%d)",
			res.Leakage.LeakToOtherASes, res.Leakage.LeakToOtherCountries,
			manual.Leakage.LeakToOtherASes(), manual.Leakage.LeakToOtherCountries())
	}
	if len(res.Churn) == 0 {
		t.Error("no churn distributions in result")
	}
}

// TestExperimentStreamingMatchesBatch extends the streaming==batch
// guarantee to the new entry point: a cumulative streaming experiment's
// final window identifies exactly what the batch experiment does.
func TestExperimentStreamingMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := New(WithConfig(cfg), WithStreaming())
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeStreaming {
		t.Fatalf("mode %v, want streaming", res.Mode)
	}
	if len(res.Windows) != cfg.Days {
		t.Fatalf("cumulative stride-1 replay emitted %d windows over %d days", len(res.Windows), cfg.Days)
	}
	final := res.FinalWindow()
	if final.StartDay != 0 || final.EndDay != cfg.Days-1 {
		t.Fatalf("final window covers [%d..%d], want [0..%d]", final.StartDay, final.EndDay, cfg.Days-1)
	}
	if !bytes.Equal(identifiedBytes(res.Identified), identifiedBytes(batch.Identified)) {
		t.Error("streaming experiment's final identifications diverge from batch")
	}
	if !reflect.DeepEqual(final.Identified, res.Identified) {
		t.Error("Result.Identified is not the final window's set")
	}
	if len(res.Convergence) == 0 && len(res.Identified) > 0 {
		t.Error("censors identified but no convergence records")
	}
}

// TestExperimentMatrixMatchesRunner pins the matrix mode to the
// deprecated Runner: same cells, same aggregate. It also pins the whole
// published matrix outcome — the aggregate with its resolved censor names,
// and every cell status — as independent of how many cells run at once.
func TestExperimentMatrixMatchesRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of pipelines in -short mode")
	}
	base := matrixConfig()
	legacy := AggregateMatrix((&Runner{Workers: 2}).RunMatrix(SeedSweep(base, 2)))

	exp, err := New(WithConfig(base), WithSeedSweep(2), WithMatrixWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeMatrix || res.Matrix == nil {
		t.Fatalf("mode %v, matrix %v", res.Mode, res.Matrix)
	}
	if res.Matrix.Runs != legacy.Runs || res.Matrix.Failed != legacy.Failed {
		t.Fatalf("runs/failed (%d,%d), legacy (%d,%d)",
			res.Matrix.Runs, res.Matrix.Failed, legacy.Runs, legacy.Failed)
	}
	if res.Matrix.TotalCNFs != legacy.TotalCNFs || res.Matrix.UniqueCNFs != legacy.UniqueCNFs {
		t.Fatalf("CNF totals (%d,%d), legacy (%d,%d)",
			res.Matrix.TotalCNFs, res.Matrix.UniqueCNFs, legacy.TotalCNFs, legacy.UniqueCNFs)
	}
	gotRuns := map[ASN]int{}
	for _, c := range res.Matrix.Censors {
		gotRuns[c.ASN] = c.Runs
	}
	if !reflect.DeepEqual(gotRuns, censusRuns(legacy)) {
		t.Fatalf("matrix censors %v diverge from legacy %v", gotRuns, censusRuns(legacy))
	}
	if !reflect.DeepEqual(res.Matrix.Stable, legacy.StableCensors()) {
		t.Fatalf("stable set %v diverges from legacy %v", res.Matrix.Stable, legacy.StableCensors())
	}
	if len(res.Cells) != 2 || len(res.Pipelines) != 2 {
		t.Fatalf("%d cells, %d pipelines, want 2 each", len(res.Cells), len(res.Pipelines))
	}
	for i, cs := range res.Cells {
		if cs.Index != i || cs.Err != nil || cs.CNFs == 0 {
			t.Errorf("cell %d malformed: %+v", i, cs)
		}
	}

	// The tiny matrix identifies nobody, so the layout comparison runs a
	// sweep whose cells name censors, one of them in two cells.
	sweep := SmallConfig()
	sweep.Seed = 5
	sweep.Days = 20
	sweep.Workers = 1
	var layouts [2]*Result
	for i := range layouts {
		exp, err := New(WithConfig(sweep), WithSeedSweep(3), WithMatrixWorkers(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if layouts[i], err = exp.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if ms := layouts[0].Matrix; len(ms.Censors) == 0 || ms.Censors[0].Runs < 2 || ms.Censors[0].Name == "" {
		t.Fatalf("degenerate matrix: no named censor found by two cells: %+v", ms.Censors)
	}
	if !reflect.DeepEqual(layouts[0].Matrix, layouts[1].Matrix) {
		t.Errorf("matrix aggregate differs between 1 and 2 matrix workers:\n%+v\nvs\n%+v", layouts[0].Matrix, layouts[1].Matrix)
	}
	if !reflect.DeepEqual(layouts[0].Cells, layouts[1].Cells) {
		t.Errorf("cell statuses differ between 1 and 2 matrix workers:\n%+v\nvs\n%+v", layouts[0].Cells, layouts[1].Cells)
	}
}

// TestExperimentMatrixSurvivesFailedCell mirrors the Runner guarantee on
// the new entry point: a broken cell is reported, not fatal.
func TestExperimentMatrixSurvivesFailedCell(t *testing.T) {
	good := matrixConfig()
	bad := matrixConfig()
	bad.ASes = 20
	bad.Vantages = 1000 // impossible: more vantages than stubs
	exp, err := New(WithConfigs(bad, good), WithMatrixWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix.Runs != 1 || res.Matrix.Failed != 1 {
		t.Fatalf("runs=%d failed=%d, want 1/1", res.Matrix.Runs, res.Matrix.Failed)
	}
	if res.Cells[0].Err == nil || res.Cells[1].Err != nil {
		t.Fatalf("cell errors misplaced: %v / %v", res.Cells[0].Err, res.Cells[1].Err)
	}
	if res.Pipelines[0] != nil || res.Pipelines[1] == nil {
		t.Fatal("pipelines misplaced across failed/good cells")
	}
}

// --- Event stream ----------------------------------------------------------

// TestEventStreamAndTextRendering checks the typed event stream's shape
// and that TextObserver reproduces the legacy progress lines.
func TestEventStreamAndTextRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	var events []Event
	var text bytes.Buffer
	exp, err := New(
		WithConfig(cfg),
		WithObserver(func(ev Event) { events = append(events, ev) }),
		WithObserver(TextObserver(&text)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	wantStages := []Stage{StageTopology, StageTimeline, StageCensors,
		StageIPASMap, StageScenario, StageMeasure, StageSolve}
	if len(events) != len(wantStages) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(wantStages), events)
	}
	for i, ev := range events {
		if ev.Stage != wantStages[i] {
			t.Errorf("event %d is %v, want %v", i, ev.Stage, wantStages[i])
		}
		if ev.Cell != -1 || ev.Day != -1 || ev.Window != -1 {
			t.Errorf("event %d has stray indices: %+v", i, ev)
		}
		if ev.Stats.Seed != cfg.Seed {
			t.Errorf("event %d seed %d, want %d", i, ev.Stats.Seed, cfg.Seed)
		}
	}

	want := fmt.Sprintf("generating topology (%d ASes, %d countries)\n", cfg.ASes, cfg.Countries) +
		fmt.Sprintf("generating churn timeline (%d days)\n", cfg.Days) +
		"placing censors\n" +
		"building historical IP-to-AS database\n" +
		fmt.Sprintf("selecting %d vantages and %d URLs\n", cfg.Vantages, cfg.URLs) +
		"running measurement platform\n" +
		"building and solving CNFs\n"
	if text.String() != want {
		t.Errorf("TextObserver output diverges from the legacy progress lines:\n%q\nwant\n%q", text.String(), want)
	}
}

// TestStreamingEventStream checks the per-day/per-window events.
func TestStreamingEventStream(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	days, windows := 0, 0
	lastWindow := -1
	exp, err := New(WithConfig(cfg), WithWindow(12), WithStride(3),
		WithObserver(func(ev Event) {
			switch ev.Stage {
			case StageDay:
				if ev.Day != days {
					t.Errorf("day event %d out of order (got ordinal %d)", days, ev.Day)
				}
				days++
			case StageWindow:
				if ev.Window != lastWindow+1 {
					t.Errorf("window event %d out of order (got ordinal %d)", lastWindow+1, ev.Window)
				}
				lastWindow = ev.Window
				windows++
				if ev.Stats.CNFs == 0 && ev.Stats.Censors > 0 {
					t.Errorf("window %d names censors with zero CNFs", ev.Window)
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if days != cfg.Days {
		t.Errorf("observed %d day events over %d days", days, cfg.Days)
	}
	if windows != len(res.Windows) {
		t.Errorf("observed %d window events for %d windows", windows, len(res.Windows))
	}
}

// --- Cancellation ----------------------------------------------------------

// settleGoroutines polls until the goroutine count returns to the
// baseline (plus slack for runtime helpers), failing after the deadline.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runCanceled runs the experiment on a context that an observer cancels
// at the given stage, under a watchdog, and asserts the run returns
// context.Canceled promptly and leaks no goroutines.
func runCanceled(t *testing.T, cancelAt Stage, opts ...Option) {
	t.Helper()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts = append(opts, WithObserver(func(ev Event) {
		if ev.Stage == cancelAt {
			cancel()
		}
	}))
	exp, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := exp.Run(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at %v: Run returned %v, want context.Canceled", cancelAt, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("canceled at %v: Run did not return within the watchdog", cancelAt)
	}
	settleGoroutines(t, before)
}

func TestRunCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	cfg.Workers = 4
	t.Run("before measurement", func(t *testing.T) {
		runCanceled(t, StageMeasure, WithConfig(cfg))
	})
	t.Run("before solve", func(t *testing.T) {
		runCanceled(t, StageSolve, WithConfig(cfg))
	})
	t.Run("mid substrate", func(t *testing.T) {
		runCanceled(t, StageCensors, WithConfig(cfg))
	})
	t.Run("mid stream replay", func(t *testing.T) {
		runCanceled(t, StageWindow, WithConfig(cfg), WithWindow(10), WithStride(5))
	})
	t.Run("mid matrix", func(t *testing.T) {
		runCanceled(t, StageCell, WithConfig(matrixConfig()), WithSeedSweep(4), WithMatrixWorkers(2))
	})
}

func TestRunPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp, err := New(WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := exp.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a pre-canceled ctx returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-canceled Run took %v", elapsed)
	}
}

func TestRunDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	exp, err := New(WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run past its deadline returned %v", err)
	}
	settleGoroutines(t, before)
}

func TestRunNilContext(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	exp, err := New(WithConfig(matrixConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(nil); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatalf("Run(nil) = %v", err)
	}
}

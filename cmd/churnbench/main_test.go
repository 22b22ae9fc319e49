package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"churntomo"
)

// tinyDims keep the tests' worlds small.
var tinyDims = dimensions{
	synth: churntomo.Config{
		ASes: 120, Countries: 12, Vantages: 8, URLs: 12, URLsPerDay: 6, RepeatsPerDay: 2, Days: 24,
	},
	replay: churntomo.Config{
		ASes: 120, Countries: 12, Vantages: 8, URLs: 12, URLsPerDay: 6, RepeatsPerDay: 2, Days: 24,
	},
	window: 4,
}

// TestMain runs the tests at tiny dimensions and lets the test binary
// stand in for churnbench's child processes: bench re-executes
// os.Executable with -child first.
func TestMain(m *testing.M) {
	dims = tinyDims
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{1, 0.5, 0, false},
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{100, 0.5, 50, true},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, name)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		// Every workload reports every end-to-end metric, and batch runs
		// emit no windows, so no window latency can be one of them.
		if strings.Contains(m.Name, "window") {
			t.Errorf("end-to-end metric %s is a window latency, which batch workloads cannot measure", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness's own
// workload and metric lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	for _, set := range []struct {
		key        string
		file, code []metric
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if len(set.file) != len(set.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", set.key, len(set.file), len(set.code))
			continue
		}
		for i, m := range set.code {
			if set.file[i] != m {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", set.key, i, set.file[i], m)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 40 * ms, End: 70 * ms},
		{Name: "b.1", Parent: 2, Start: 45 * ms, End: 65 * ms},
		{Name: "other", Parent: -1, Start: 200 * ms, End: 210 * ms},
	}
	for i, want := range []time.Duration{
		100*ms - 20*ms - 30*ms,
		20 * ms,
		30*ms - 20*ms,
		20 * ms,
		10 * ms,
	} {
		if got := selfTime(spans, i); got != want {
			t.Errorf("selfTime(%s) = %v, want %v", spans[i].Name, got, want)
		}
	}
}

func TestTracerNestsAndTotals(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	for range 3 {
		if err := tr.call("inner", func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	tr.end(outer)
	if tr.spans[1].Parent != outer || tr.spans[3].Parent != outer {
		t.Fatalf("inner spans not parented to outer: %+v", tr.spans)
	}
	if got := tr.total("inner"); got.dur() > tr.spans[outer].dur() {
		t.Errorf("inner total %v exceeds outer %v", got.dur(), tr.spans[outer].dur())
	}
	if got := tr.topLevel(); got != tr.spans[outer].dur() {
		t.Errorf("topLevel = %v, want the outer span's %v", got, tr.spans[outer].dur())
	}
	defer func() {
		if recover() == nil {
			t.Error("ending a span that is not innermost did not panic")
		}
	}()
	a := tr.begin("a")
	tr.begin("b")
	tr.end(a)
}

func TestParseTraces(t *testing.T) {
	text := `File: churnbench
Type: samples
-----------+-------------------------------------------------------
      span:  iclab.measure
         3   regexp.(*Regexp).doExecute
             churntomo/internal/blockpage.Match
             churntomo/internal/iclab.(*Scenario).runDay
-----------+-------------------------------------------------------
         2   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
         1   runtime.mallocgc (inline)
             runtime.gcAssistAlloc
             churntomo/internal/routing.ComputeTree
-----------+-------------------------------------------------------
      span:  iclab.measure
    worker:  2
         4   churntomo/internal/routing.(*Oracle).TreeAt.func1 (inline)
             churntomo/internal/routing.(*Oracle).TreeAt
-----------+-------------------------------------------------------
         5   runtime.memmove
             main.(*composition).run
-----------+-------------------------------------------------------
`
	counts, total, err := parseTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"blockpage": 3, "gc": 3, "routing": 4, "other": 5}
	if total != 15 {
		t.Errorf("total = %d, want 15", total)
	}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("counts[%s] = %d, want %d (all: %v)", k, counts[k], v, counts)
		}
	}
	if _, _, err := parseTraces([]byte("-----------+---\n  x   f\n")); err == nil {
		t.Error("a non-numeric sample count parsed")
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "synth-batch", "--seed", "7", "--seconds", "10", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "synth-batch" || o.seed != 7 || o.seconds != 10*time.Second || o.trace != 1 {
		t.Errorf("parsed %+v", o)
	}
	for _, args := range [][]string{
		{},
		{"-workload", "x", "-trace", "2"},
		{"-workload", "x", "-seconds", "-1"},
		{"-workload", "x", "extra"},
		{"-workload", "x", "-seed", "18446744073709551615"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	if code := run([]string{"-workload", "nope", "-seconds", "0", "-workdir", t.TempDir()}, &bytes.Buffer{}); code != 1 {
		t.Errorf("unknown workload exited %d, want 1", code)
	}
}

// TestSmoke runs every workload at tiny dimensions, end-to-end and traced,
// through real child processes, and requires every digest check to pass
// and every declared metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			o := options{workload: w.name, seed: 1, trace: trace, workdir: dir}
			var out bytes.Buffer
			if err := bench(context.Background(), o, exe, &out); err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: result line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minRuns {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			declared := endToEnd
			if trace == 1 {
				declared = perLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.name, trace, m.Name)
				case trace == 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, v.Value)
				}
			}
			if trace == 1 {
				if got := res.Metrics["stream.windows"].Value; (got > 0) != w.stream {
					t.Errorf("%s: stream.windows = %v", w.name, got)
				}
				if !w.stream && res.Metrics["stream.window_p50_ms"].Value != 0 {
					t.Errorf("%s: batch workload reports a window latency", w.name)
				}
			}
		}
	}
}

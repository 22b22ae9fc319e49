package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minRuns is the fewest timed runs an invocation makes, whatever its
// time budget, so every end-to-end metric is a median of several.
const minRuns = 3

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// provenance states what the numbers were measured on and over, so every
// ratio carries its base.
type provenance struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Workers    int                `json:"workers"`
	Input      map[string]float64 `json:"input"`
	Checks     map[string]bool    `json:"checks"`
	Runs       []timedRun         `json:"runs"`
}

// timedRun is one timed child as the parent saw it.
type timedRun struct {
	timedResult
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests while the run went on; it tells a slow host
	// from slow code.
	StealFrac float64 `json:"steal_frac"`
	Err       string  `json:"err,omitempty"`
}

// bench runs one invocation: the dataset export a replay needs (cached
// by binary and seed), the traced run that yields the reference digest
// and the per-layer metrics, then fresh-process timed runs for
// o.seconds. It writes the provenance line and, last, the result line to
// stdout.
func bench(ctx context.Context, o options, exe string, stdout io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	prov := provenance{
		Workload: w.name, Seed: o.seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workers: runtime.NumCPU(), Input: map[string]float64{}, Checks: map[string]bool{},
	}
	common := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10)}

	var direct digest
	if w.replay {
		id, err := fileID(exe)
		if err != nil {
			return err
		}
		o.dataset = filepath.Join(o.workdir, "datasets", fmt.Sprintf("%s-seed%d.jsonl.gz", id, o.seed))
		if direct, err = ensureDataset(ctx, exe, o.dataset, common); err != nil {
			return fmt.Errorf("export: %w", err)
		}
		common = append(common, "-dataset", o.dataset)
	}

	traceArgs := append([]string{"-child", "traced"}, common...)
	profile := ""
	if o.trace == 1 {
		profile = filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, o.seed))
		traceArgs = append(traceArgs, "-profile", profile)
	}
	var ref tracedResult
	if _, err := child(ctx, exe, &ref, traceArgs...); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if err := writeJSON(filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed)), ref.Spans); err != nil {
		return err
	}
	if w.replay && !w.stream {
		prov.Checks["replay_equals_direct"] = slices.Equal(ref.Digest.Identified, direct.Identified)
	}
	if w.stream {
		prov.Checks["stream_equals_batch"] = ref.StreamEqualsBatch
	}
	prov.Input["days"] = float64(dims.synth.Days)
	if w.replay {
		prov.Input["days"] = float64(dims.replay.Days)
	}
	prov.Input["records"] = float64(ref.Digest.Records)
	prov.Input["cnfs"] = float64(ref.Digest.CNFs)
	prov.Input["dataset_bytes"] = ref.Metrics["dataset.bytes"]
	prov.Input["windows"] = ref.Metrics["stream.windows"]

	runs, failed := timedLoop(ctx, exe, append([]string{"-child", "timed"}, common...), ref.Digest, o.seconds)
	prov.Runs = runs
	prov.Checks["composition_equals_run"] = failed < len(runs)

	measured := endToEndMetrics(runs)
	declared := endToEnd
	if o.trace == 1 {
		declared = perLayer
		untraced := measured["wall_s"]
		measured = ref.Metrics
		measured["trace.overhead_frac"] = ratio(ref.WallS, untraced) - 1
		shares, err := cpuShares(ctx, exe, profile)
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		for k, v := range shares {
			measured[k] = v
		}
	}
	correct := failed == 0
	for _, ok := range prov.Checks {
		correct = correct && ok
	}
	if err := writeLine(stdout, map[string]provenance{"provenance": prov}); err != nil {
		return err
	}
	return writeLine(stdout, result{Correct: correct, Attempted: len(runs), Failed: failed, Metrics: report(declared, measured)})
}

// timedLoop makes fresh-process timed runs until seconds have passed
// (and at least minRuns), stopping early when the invocation's own
// deadline draws near. A run that errors or whose digest differs from
// ref counts as failed.
func timedLoop(ctx context.Context, exe string, args []string, ref digest, seconds time.Duration) ([]timedRun, int) {
	var runs []timedRun
	failed := 0
	loop := time.Now()
	var longest time.Duration
	for len(runs) < minRuns || time.Since(loop) < seconds {
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < 2*longest+5*time.Second && len(runs) > 0 {
			break
		}
		t0 := time.Now()
		var r timedRun
		ticks0, ok0 := readCPUTicks()
		ps, err := child(ctx, exe, &r.timedResult, args...)
		longest = max(longest, time.Since(t0))
		if ticks1, ok1 := readCPUTicks(); ok0 && ok1 {
			r.StealFrac = ratio(float64(ticks1.steal-ticks0.steal), float64(ticks1.total-ticks0.total))
		}
		switch {
		case err != nil:
			r.Err = err.Error()
		case r.Digest.sum() != ref.sum():
			r.Err = fmt.Sprintf("digest %s differs from the traced reference %s", r.Digest.sum(), ref.sum())
		}
		if ps != nil {
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
			}
		}
		if r.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "churnbench: timed run %d failed: %s\n", len(runs)+1, r.Err)
		}
		runs = append(runs, r)
		if ctx.Err() != nil {
			break
		}
	}
	return runs, failed
}

// endToEndMetrics are the medians over the successful timed runs.
func endToEndMetrics(runs []timedRun) map[string]float64 {
	var ok []timedRun
	for _, r := range runs {
		if r.Err == "" {
			ok = append(ok, r)
		}
	}
	return map[string]float64{
		"wall_s":  median(column(ok, func(r timedRun) float64 { return r.WallS })),
		"setup_s": median(column(ok, func(r timedRun) float64 { return r.SetupS })),
		"records_per_s": median(column(ok, func(r timedRun) float64 {
			return ratio(float64(r.Digest.Records), r.WallS-r.SetupS)
		})),
		"cpu_s":       median(column(ok, func(r timedRun) float64 { return r.CPUS })),
		"peak_rss_mb": median(column(ok, func(r timedRun) float64 { return r.PeakRSSMB })),
	}
}

func column(runs []timedRun, f func(timedRun) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

// fileID names the binary by the SHA-256 of its contents, so an export
// cached by one build of the code is never read by another: the code
// that decodes a dataset and checks the replay is the code that wrote it.
func fileID(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ensureDataset exports the replay dataset unless a complete export is
// cached at path, and returns the direct run's digest. The digest
// sidecar is written last, so its presence marks a complete export.
func ensureDataset(ctx context.Context, exe, path string, common []string) (digest, error) {
	var d digest
	side := path + ".digest.json"
	b, err := os.ReadFile(side)
	if err == nil {
		if err := json.Unmarshal(b, &d); err != nil {
			return d, fmt.Errorf("%s: %w", side, err)
		}
		return d, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return d, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return d, err
	}
	args := append([]string{"-child", "export"}, common...)
	if _, err := child(ctx, exe, &d, append(args, "-dataset", path)...); err != nil {
		return d, err
	}
	return d, writeJSON(side, d)
}

// cpuTicks are the machine's CPU time counters from the first line of
// /proc/stat: steal, and the sum of user, nice, system, idle, iowait,
// irq, softirq and steal.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, true
}

// child runs this binary in a child mode and decodes the last line of its
// stdout into out. The child's stderr passes through.
func child(ctx context.Context, exe string, out any, args ...string) (*os.ProcessState, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	b, err := cmd.Output()
	if err != nil {
		return cmd.ProcessState, fmt.Errorf("%s child: %w", args[1], err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], out); err != nil {
		return cmd.ProcessState, fmt.Errorf("%s child output: %w", args[1], err)
	}
	return cmd.ProcessState, nil
}

// writeLine writes v as one JSON line.
func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeJSON writes v to path through a temporary file.
func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

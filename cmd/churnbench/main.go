// Command churnbench is the repository benchmark. It times churntomo's
// public entry point, New(opts...).Run(ctx), on one of three closed-loop
// workloads, each run in a fresh child process, checks every run's output
// digest against a reference, and breaks the same pipeline down by layer
// in a separate traced run composed from each layer's exported entry
// points. See README.md for the workloads and the metrics.
//
//	churnbench -workload synth-batch|replay-batch|replay-stream -seed N -seconds S -trace 0|1
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1). Everything it writes goes under -workdir. run.sh builds
// the binary from the checkout and runs it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// deadline bounds one invocation, children included.
const deadline = 170 * time.Second

// options are the command-line flags. The child flags select one of the
// child modes; only the parent sets them.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    int
	workdir  string

	child   string // timed, traced or export
	dataset string
	profile string
}

func parseFlags(args []string) (options, error) {
	var o options
	var seconds float64
	fs := flag.NewFlagSet("churnbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: synth-batch, replay-batch or replay-stream")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; churntomo runs under seed+1, since it reserves seed 0")
	fs.Float64Var(&seconds, "seconds", 10, "how long the timed runs go on, in seconds (at least 3 runs are made)")
	fs.IntVar(&o.trace, "trace", 0, "0 reports the end-to-end metrics, 1 the traced run's per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/churnbench-work", "directory for datasets, traces and profiles")
	fs.StringVar(&o.child, "child", "", "internal: run one child mode (timed, traced, export)")
	fs.StringVar(&o.dataset, "dataset", "", "internal: the replay dataset")
	fs.StringVar(&o.profile, "profile", "", "internal: CPU profile path of the traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.workload == "":
		return o, errors.New("-workload is required")
	case o.seed == math.MaxUint64:
		return o, errors.New("-seed must be below 2^64-1")
	case seconds < 0:
		return o, fmt.Errorf("-seconds %v is negative", seconds)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one invocation and returns the exit code: 0 after printing
// a result, 1 when the benchmark could not run, 2 for bad flags.
func run(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "churnbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	if o.child != "" {
		err = runChild(ctx, o, stdout)
	} else {
		var exe string
		if exe, err = os.Executable(); err == nil {
			err = bench(ctx, o, exe, stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "churnbench:", err)
		return 1
	}
	return 0
}

// runChild runs one child mode and writes its JSON line.
func runChild(ctx context.Context, o options, stdout io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	seed, workers := o.seed+1, runtime.NumCPU()
	var out any
	switch o.child {
	case "timed":
		out, err = runTimed(ctx, w, seed, workers, o.dataset)
	case "traced":
		out, err = runTraced(ctx, w, seed, workers, o.dataset, o.profile)
	case "export":
		out, err = runExport(ctx, seed, workers, o.dataset)
	default:
		err = fmt.Errorf("unknown child mode %q", o.child)
	}
	if err != nil {
		return err
	}
	return writeLine(stdout, out)
}

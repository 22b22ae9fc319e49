package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// shareModules are the modules nested inside measurement whose CPU share
// the traced run reports, plus gc.
var shareModules = []string{"routing", "httpsim", "dnssim", "blockpage", "netsim", "traceroute", "gc"}

// The traced run labels measurement's CPU samples spanLabel=measureSpan.
const (
	spanLabel   = "span"
	measureSpan = "iclab.measure"
)

// cpuShares reads the traced run's CPU profile with go tool pprof and
// returns each module's share of the measurement samples as
// cpu_share.<module>, and their count as cpu_share.samples. A workload
// that does not measure has no such samples, and every share reads 0.
func cpuShares(ctx context.Context, exe, profile string) (map[string]float64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-sample_index=samples",
		"-tagfocus="+spanLabel+"="+measureSpan, "-traces", exe, profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	counts, total, err := parseTraces(out)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{"cpu_share.samples": float64(total)}
	for _, m := range shareModules {
		shares["cpu_share."+m] = ratio(float64(counts[m]), float64(total))
	}
	return shares, nil
}

// parseTraces sums pprof -traces output by module: each stack's samples
// are charged to chargeTo(stack).
func parseTraces(text []byte) (counts map[string]int, total int, err error) {
	counts = map[string]int{}
	var stack []string
	n := -1 // samples of the stack being read; -1 outside a stack
	flush := func() {
		if n >= 0 {
			counts[chargeTo(stack)] += n
			total += n
		}
		stack, n = stack[:0], -1
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			n = 0
		case n == 0 && len(stack) == 0 && strings.TrimSpace(line) != "":
			fields := strings.Fields(line)
			if strings.HasSuffix(fields[0], ":") {
				continue // a "key:  value" label line before the stack
			}
			if len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: unexpected stack head %q", line)
			}
			if n, err = strconv.Atoi(fields[0]); err != nil {
				return nil, 0, fmt.Errorf("pprof traces: sample count in %q: %w", line, err)
			}
			stack = append(stack, fields[1])
		case n > 0:
			// A frame line is the function name, "(inline)" after it
			// when the compiler inlined the call.
			if fields := strings.Fields(line); len(fields) > 0 {
				stack = append(stack, fields[0])
			}
		}
	}
	flush()
	return counts, total, sc.Err()
}

// chargeTo names the module a stack's samples belong to: gc when a
// collector frame is anywhere on it, otherwise the package of the
// innermost churntomo frame, so the standard-library work a module calls
// (regexp, sorting, allocation) counts as that module's. Stacks with no
// internal churntomo frame are "other".
func chargeTo(stack []string) string {
	for _, f := range stack {
		if gcFrame(f) {
			return "gc"
		}
	}
	for _, f := range stack {
		if pkg, ok := strings.CutPrefix(f, "churntomo/internal/"); ok {
			name, _, _ := strings.Cut(pkg, ".")
			return name
		}
		if strings.HasPrefix(f, "churntomo.") || strings.HasPrefix(f, "main.") {
			return "other"
		}
	}
	return "other"
}

// gcFrame reports whether a frame is the garbage collector's: mark
// workers, assists, write barriers, sweeping and scavenging.
func gcFrame(f string) bool {
	switch f {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot":
		return true
	}
	return strings.HasPrefix(f, "runtime.gc")
}

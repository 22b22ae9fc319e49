package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded from outside: wall
// interval, process CPU and heap-allocation deltas. Parent is the index
// of the enclosing span, -1 for a top-level one.
type span struct {
	Name       string        `json:"name"`
	Parent     int           `json:"parent"`
	Start      time.Duration `json:"start_ns"`
	End        time.Duration `json:"end_ns"`
	CPU        time.Duration `json:"cpu_ns"`
	AllocBytes uint64        `json:"alloc_bytes"`
	Mallocs    uint64        `json:"mallocs"`
	GCCycles   uint32        `json:"gc_cycles"`
}

// dur is the span's wall time.
func (s span) dur() time.Duration { return s.End - s.Start }

// heapMark is the runtime.MemStats subset a span takes deltas of.
type heapMark struct {
	cpu          time.Duration
	alloc, count uint64
	gc           uint32
	pause        uint64
}

// mark samples process CPU and the allocator counters.
func mark() heapMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapMark{cpu: processCPU(), alloc: ms.TotalAlloc, count: ms.Mallocs, gc: ms.NumGC, pause: ms.PauseTotalNs}
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracer keeps spans in memory; begin/end must nest like calls. The
// counters are sampled before a span's start time is taken and after its
// end time, so sampling cost stays outside the measured interval.
type tracer struct {
	origin time.Time
	spans  []span
	marks  []heapMark // start mark per span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	m := mark()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin)})
	t.marks = append(t.marks, m)
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: end(%d) does not close the innermost open span", id))
	}
	t.open = t.open[:len(t.open)-1]
	m0, m1 := t.marks[id], mark()
	s := &t.spans[id]
	s.End = now
	s.CPU = m1.cpu - m0.cpu
	s.AllocBytes = m1.alloc - m0.alloc
	s.Mallocs = m1.count - m0.count
	s.GCCycles = m1.gc - m0.gc
}

// call runs fn inside a span named name.
func (t *tracer) call(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// total sums every span called name.
func (t *tracer) total(name string) span {
	agg := span{Name: name, Parent: -1}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		agg.End += s.dur()
		agg.CPU += s.CPU
		agg.AllocBytes += s.AllocBytes
		agg.Mallocs += s.Mallocs
		agg.GCCycles += s.GCCycles
	}
	return agg
}

// topLevel sums the wall time of the spans with no parent.
func (t *tracer) topLevel() time.Duration {
	var sum time.Duration
	for i := range t.spans {
		if t.spans[i].Parent < 0 {
			sum += t.spans[i].dur()
		}
	}
	return sum
}

// selfTime is span i's duration minus its children's. The tracer nests
// spans like calls, so children are disjoint and lie inside their parent.
func selfTime(spans []span, i int) time.Duration {
	self := spans[i].dur()
	for j := range spans {
		if spans[j].Parent == i {
			self -= spans[j].dur()
		}
	}
	return self
}

// spanRow is one span as written to the trace file.
type spanRow struct {
	span
	SelfNs time.Duration `json:"self_ns"`
}

// rows pairs every span with its self time, in begin order.
func (t *tracer) rows() []spanRow {
	out := make([]spanRow, len(t.spans))
	for i := range t.spans {
		out[i] = spanRow{span: t.spans[i], SelfNs: selfTime(t.spans, i)}
	}
	return out
}

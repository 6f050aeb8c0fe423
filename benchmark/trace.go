package main

// In-memory span recording for the traced run. Spans are recorded from
// the benchmark's own files, around the calls into each layer; nothing
// inside internal/ is instrumented. A nil *tracer records nothing, so
// the untraced run pays one nil check per call site.
//
// Host spans overlap whenever more than one simulated thread is
// runnable: the simulator runs them one at a time on one OS thread, so
// a fault span of thread A also covers whatever thread B did while A
// was parked. Self time therefore subtracts the *union* of the
// children's intervals, and host fault latencies are only reported
// from the serial phase of fault-storm.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

type span struct {
	Name       string
	Start, End int64 // host ns since the tracer's epoch
	Parent     int32 // index of the causing span, -1 for a root
	Run        int32 // workload-run id: one per timed iteration or probe set
	// SimStart/SimEnd are virtual-time stamps in ns; SimEnd < SimStart
	// marks a span without virtual stamps.
	SimStart, SimEnd int64
}

type tracer struct {
	epoch time.Time
	spans []span
	run   int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) nextRun() {
	if t != nil {
		t.run++
	}
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: t.now(), Parent: parent, Run: t.run, SimEnd: -1,
	})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// now is the host time since the tracer's epoch; span starts that are
// only kept when the operation turns out to have faulted are taken with
// it.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// access records a completed accessor call that began at host time
// start (from now) and carries virtual-time stamps.
func (t *tracer) access(name string, parent int32, start, simStart, simEnd int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Start: start, End: t.now(), Parent: parent, Run: t.run,
		SimStart: simStart, SimEnd: simEnd,
	})
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize computes per-name totals and self times. A span's self
// time is its duration minus the part of it that its child spans cover.
func (t *tracer) summarize() []spanSummary {
	if t == nil {
		return nil
	}
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*spanSummary{}
	for i, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		dur := s.End - s.Start
		sum.Count++
		sum.TotalMS += float64(dur) / 1e6
		sum.SelfMS += float64(dur-covered(children[int32(i)], s.Start, s.End)) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeChrome writes the spans as Chrome-trace ("Trace Event Format")
// JSON: one complete event per span, the workload-run id as pid, so
// chrome://tracing or Perfetto lays the runs out side by side.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int32          `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		args := map[string]any{"id": i, "parent": s.Parent}
		if s.SimEnd >= s.SimStart {
			args["sim_start_ms"] = float64(s.SimStart) / 1e6
			args["sim_ms"] = float64(s.SimEnd-s.SimStart) / 1e6
		}
		// Concurrent children of one parent overlap; giving each parent
		// its own lane keeps the viewer from stacking them wrongly.
		ev := event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Run, Tid: s.Parent + 1, Args: args}
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("encoding span %d: %w", i, err)
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

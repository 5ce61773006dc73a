package main

import (
	"encoding/json"
	"io"
	"time"
)

// spanID indexes a recorded span; noSpan is the parent of a root and
// what a nil recorder hands out.
type spanID int32

const noSpan spanID = -1

type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     spanID
}

// recorder is the benchmark's own in-memory span log. It times calls
// into the program's layers from the outside — nothing inside the
// program knows about it — and is written out as a Chrome trace when
// the run ends. A nil recorder records nothing, so the untraced and the
// traced loop are the same code.
type recorder struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

func (r *recorder) begin(name string, parent spanID) spanID {
	if r == nil {
		return noSpan
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent})
	return spanID(len(r.spans) - 1)
}

func (r *recorder) end(id spanID) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.epoch)
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	if r == nil {
		return d
	}
	for i := range r.spans {
		if r.spans[i].name == name {
			d += r.spans[i].end - r.spans[i].start
		}
	}
	return d
}

// writeChrome writes the spans in the Chrome trace_event format
// (chrome://tracing, https://ui.perfetto.dev). Every span carries the
// workload as its shared identifier and the index of the span that
// caused it.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"workload": r.workload, "id": i, "parent": int(s.parent)},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}

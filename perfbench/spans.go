package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call (spans inside the simulator are not recorded).
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index of the enclosing span, -1 for a root
	lane       int           // concurrent caller (daemon client connection), 0 otherwise
}

// recorder keeps a run's spans in memory until the run ends. All spans of
// one run share runID. A nil *recorder records nothing, so untraced code
// paths call the same methods.
type recorder struct {
	runID string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(runID string) *recorder {
	return &recorder{runID: runID, epoch: time.Now()}
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: parent, lane: lane})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// timed runs f inside a span named name and returns f's duration in
// seconds. f receives the span id to parent nested spans on.
func (r *recorder) timed(name string, parent int, f func(id int)) float64 {
	id := r.begin(name, parent, 0)
	t := time.Now()
	f(id)
	d := elapsed(t)
	r.end(id)
	return d
}

// mark returns the number of spans recorded so far, to select the spans of
// one pass with selfByName.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfByName sums, per span name, the self time in seconds of every closed
// span recorded from index from on: the span's duration minus the part of
// its interval that its children cover (children may overlap each other, so
// their union is subtracted, not their sum).
func (r *recorder) selfByName(from int) map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return selfTimes(r.spans, from)
}

func selfTimes(spans []span, from int) map[string]float64 {
	children := map[int][]span{}
	for i := from; i < len(spans); i++ {
		if p := spans[i].parent; p >= 0 && spans[i].end >= 0 {
			children[p] = append(children[p], spans[i])
		}
	}
	out := map[string]float64{}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		if s.end < 0 {
			continue
		}
		out[s.name] += (s.end - s.start - covered(s, children[i])).Seconds()
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// traceEvent is one Chrome/Perfetto "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans as Chrome/Perfetto trace-event JSON.
func (r *recorder) write(path string) error {
	if r == nil || path == "" {
		return nil
	}
	r.mu.Lock()
	events := make([]traceEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane + 1,
			Args: map[string]any{"run_id": r.runID, "span": i, "parent": s.parent},
		})
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

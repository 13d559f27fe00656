package main

import "time"

// span is one timed call into a layer. Spans of one query share its
// query ID; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   string `json:"query"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`

	start time.Time
	dur   time.Duration
}

// recorder keeps the spans of a traced run in memory; they are written
// out with the results when the run ends. It is used from one goroutine.
type recorder struct {
	origin time.Time
	spans  []span
}

// begin opens a span and returns its ID.
func (r *recorder) begin(query, name string, parent int) int {
	return r.add(query, name, parent, time.Now(), 0)
}

// end closes an open span.
func (r *recorder) end(id int) {
	s := &r.spans[id]
	s.dur = time.Since(s.start)
	s.DurUs = s.dur.Microseconds()
}

// add records a span whose bounds are already known.
func (r *recorder) add(query, name string, parent int, start time.Time, dur time.Duration) int {
	if r.origin.IsZero() {
		r.origin = start
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Query: query, Name: name,
		StartUs: start.Sub(r.origin).Microseconds(), DurUs: dur.Microseconds(),
		start: start, dur: dur,
	})
	return id
}

// selfTimes sums each span name's self time: its duration minus the
// time its child spans cover. Children of one span never overlap here,
// because each parent calls its layers one after another.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Name] += s.dur - child[i]
	}
	return out
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.dur
		}
	}
	return d
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the driver around its
// own call. Spans of one operation (a sweep, a request, a grid cell)
// share Req; Parent is the enclosing span's ID, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// recorder keeps spans in memory while on; off, begin and end only time.
// The driver is single-threaded, so a child span always nests inside its
// parent and never overlaps a sibling.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 while recording is off).
func (r *recorder) begin(name string, parent, req int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans), Parent: parent, Req: req,
		Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

// end closes a span.
func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = time.Since(r.t0).Nanoseconds()
	}
}

// endAs closes a span under a name decided by its outcome.
func (r *recorder) endAs(id int, name string) {
	if id >= 0 {
		r.spans[id].Name = name
	}
	r.end(id)
}

// timed runs fn inside a span and returns its duration, recorded or not.
func (r *recorder) timed(name string, parent, req int, fn func()) time.Duration {
	id := r.begin(name, parent, req)
	t := time.Now()
	fn()
	d := time.Since(t)
	r.end(id)
	return d
}

// layerTime sums one span name's total and self time: a span's self time
// is its duration minus the time its children cover.
type layerTime struct {
	count       int
	total, self int64
}

func (r *recorder) layerTimes() map[string]*layerTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range r.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.End - s.Start
		lt.self += s.End - s.Start - child[i]
	}
	return out
}

// reportSpans prints each span name's total and self time and writes the
// spans out as JSON beside the run's scratch directory.
func (b *bench) reportSpans() {
	lts := b.rec.layerTimes()
	names := make([]string, 0, len(lts))
	for n := range lts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := lts[n]
		note("span %-28s count=%-6d total_ms=%.3f self_ms=%.3f", n, lt.count,
			float64(lt.total)/1e6, float64(lt.self)/1e6)
	}
	path := filepath.Join(b.work, fmt.Sprintf("spans-%s-seed%d.json", b.wd.name, b.seed))
	data, err := json.Marshal(b.rec.spans)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		note("spans not written: %v", err)
		return
	}
	note("spans (%d) written to %s", len(b.rec.spans), path)
}

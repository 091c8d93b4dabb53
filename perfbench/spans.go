package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mage/internal/trace"
)

// span is one timed call perfbench made into a layer. Times are
// nanoseconds since the tracer started.
type span struct {
	name       string
	id, parent int64
	tid        int
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// lane buffers one goroutine's spans so recording takes no lock.
type lane struct {
	t     *tracer
	tid   int
	spans []span
}

func (t *tracer) lane(tid int) *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t, tid: tid}
}

// begin opens a span under parent. The returned span is closed by end.
func (l *lane) begin(name string, parent int64) span {
	if l == nil {
		return span{}
	}
	return span{name: name, id: l.t.ids.Add(1), parent: parent, tid: l.tid, start: l.t.now()}
}

func (l *lane) end(s span) {
	if l == nil {
		return
	}
	s.end = l.t.now()
	l.spans = append(l.spans, s)
}

// flush hands the lane's spans to the tracer.
func (l *lane) flush() {
	if l == nil {
		return
	}
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.spans...)
	l.t.mu.Unlock()
	l.spans = nil
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) latencies {
	var out latencies
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (parallel workers); covered time is their union, clipped to the
// parent.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered int64
		curS, curE := int64(0), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.start), min(c[1], s.end)
			if a >= b {
				continue
			}
			if a > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// phases returns the self time of every span that has children.
func (t *tracer) phases() map[int64]int64 {
	self := selfTimes(t.spans)
	hasKids := make(map[int64]bool)
	for _, s := range t.spans {
		hasKids[s.parent] = true
	}
	for id := range self {
		if !hasKids[id] {
			delete(self, id)
		}
	}
	return self
}

// writeChrome writes the spans as a Chrome trace. Phase spans (those
// with children) carry their id, parent and self time as arguments.
func (t *tracer) writeChrome(w io.Writer) error {
	self := t.phases()
	rec := trace.New(len(t.spans) + 1)
	rec.ProcessName(0, "perfbench")
	for _, s := range t.spans {
		var args map[string]any
		if st, ok := self[s.id]; ok {
			args = map[string]any{"id": s.id, "parent": s.parent, "self_us": float64(st) / 1e3}
		}
		rec.Span(s.name, "perfbench", 0, s.tid, s.start, s.end, args)
	}
	return rec.WriteJSON(w)
}

// phaseReport prints each phase span's wall and self time.
func (t *tracer) phaseReport(w io.Writer) {
	self := t.phases()
	for _, s := range t.spans {
		if st, ok := self[s.id]; ok {
			fmt.Fprintf(w, "# span %-28s wall %9.3f ms  self %9.3f ms\n", s.name, float64(s.dur())/1e6, float64(st)/1e6)
		}
	}
}

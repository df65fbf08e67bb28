package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name, the read it served and
// its interval in nanoseconds since the tracer's epoch.
type span struct {
	name string
	req  int64
	iv   interval
}

// tracer keeps spans in memory until the run reports them. Reads go out
// one at a time while tracing, so the id of the read in flight (cur) is
// the request id of every span recorded during it.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	cur   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name string, req int64, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, req: req, iv: interval{start, end}})
	t.mu.Unlock()
}

// wrap times every call into h as a span named name while tracing is on.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := t.now()
		h.ServeHTTP(w, req)
		t.add(name, t.cur.Load(), start, t.now())
	})
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanRec is one span the benchmark records around a call into the
// library: its name, start and end (ns since the run began), the index
// of the span that caused it (-1 for none) and the request it belongs
// to, shared by every span of one request.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs call it. It is used from
// the benchmark's driving goroutine only.
type tracer struct {
	base    time.Time
	spans   []spanRec
	dropped int64
	lastReq uint64
}

// maxSpans bounds the spans kept; later ones are counted as dropped.
const maxSpans = 1 << 16

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]spanRec, 0, maxSpans)}
}

func (t *tracer) req() uint64 {
	if t == nil {
		return 0
	}
	t.lastReq++
	return t.lastReq
}

// span records a finished span from times the caller already took.
func (t *tracer) span(name string, parent int32, req uint64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, spanRec{Name: name, Start: int64(start.Sub(t.base)),
		End: int64(end.Sub(t.base)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	now := time.Now()
	return t.span(name, parent, req, now, now)
}

func (t *tracer) end(i int32) {
	if t != nil && i >= 0 {
		t.spans[i].End = int64(time.Since(t.base))
	}
}

// write saves the spans, with the host they were taken on, as JSON.
func (t *tracer) write(path string, h host) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Host    host      `json:"host"`
		Dropped int64     `json:"dropped"`
		Spans   []spanRec `json:"spans"`
	}{h, t.dropped, t.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

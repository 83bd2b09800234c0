package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, start and end, and the
// span that caused it (0 = a root).
type span struct {
	ID, Parent int64
	Name       string
	Start, End time.Time
}

// spanLog keeps spans in memory for the length of a run; a nil *spanLog
// records nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its ID (0 when off); end closes it.
func (l *spanLog) begin(name string, parent int64, start time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: start})
	return id
}

func (l *spanLog) end(id int64, t time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = t
}

// add records a finished span and returns its ID (0 when off).
func (l *spanLog) add(name string, parent int64, start, end time.Time) int64 {
	id := l.begin(name, parent, start)
	l.end(id, end)
	return id
}

// len is the number of spans recorded.
func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// chromeEvent is one Chrome trace-event "complete" event; the span tree
// rides in args because the format links events by time nesting only.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (µs), one
// timeline row per root span so concurrent requests do not overlap.
func (l *spanLog) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	l.mu.Lock()
	root := make(map[int64]int64, len(l.spans))
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		r := s.ID
		if s.Parent != 0 {
			r = root[s.Parent]
		}
		root[s.ID] = r
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: r % 64,
			Ts:   float64(s.Start.Sub(l.origin)) / 1e3,
			Dur:  float64(s.End.Sub(s.Start)) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	l.mu.Unlock()
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Trace is one recorded execution: a tree of spans rooted at the overall
// operation (a federated query, an ALEX run). Traces are built online
// while the operation runs and rendered afterwards (fedsparql --trace,
// sparqld /debug/trace), which carry a query's trace in its context
// (WithTrace), so a traced query runs the served path. A nil *Trace is the
// disabled state; every method is a no-op returning nil, so instrumented
// code needs no guards.
type Trace struct {
	root *Span
}

type traceKey struct{}

// WithTrace returns a copy of ctx that carries tr: every evaluation under
// it records its spans on tr.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace ctx carries, or nil when it carries none.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// NewTrace starts a trace whose root span has the given name.
func NewTrace(name string) *Trace {
	return &Trace{root: newSpan(name)}
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
}

// String renders the span tree, one span per line, indented by depth, with
// durations and attributes:
//
//	query (1.8ms) answers=12
//	  bgp (1.7ms)
//	    plan (12µs)
//	      step (-) tp=?p <pos> "PG" . sources=dbpedia exclusive=1
//	    pattern (0.4ms) tp=?p <pos> "PG" . in=1 out=40
func (t *Trace) String() string {
	if t == nil || t.root == nil {
		return ""
	}
	var b strings.Builder
	t.root.render(&b, 0)
	return b.String()
}

// Find returns the first span (pre-order) whose name matches, or nil.
func (t *Trace) Find(name string) *Span { return t.Root().Find(name) }

// MarshalJSON renders the trace as its span dump.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.Root().Dump())
}

// Span is one stage of a trace: a name, a duration, ordered attributes
// (cardinalities, labels) and child spans. Spans are safe for concurrent
// use: parallel bound-join workers may add children and accumulate
// attribute counts on the same parent. A nil *Span is a no-op.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	ints     []intAttr
	strs     []strAttr
	children []*Span
}

type intAttr struct {
	k string
	v int64
}

type strAttr struct {
	k, v string
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a new child span. Returns nil on a nil receiver so whole
// instrumented call chains degrade to no-ops.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End fixes the span's duration. Calling End again overwrites the
// duration, which lets long-lived roots refresh their elapsed time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dur = time.Since(s.start)
	s.mu.Unlock()
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// SetInt sets an integer attribute (row counts, cardinalities),
// overwriting any previous value for the key.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.ints {
		if s.ints[i].k == key {
			s.ints[i].v = v
			return
		}
	}
	s.ints = append(s.ints, intAttr{k: key, v: v})
}

// AddInt accumulates into an integer attribute — the concurrent-friendly
// form parallel workers use (e.g. counting sameAs rewrites per pattern).
func (s *Span) AddInt(key string, d int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.ints {
		if s.ints[i].k == key {
			s.ints[i].v += d
			return
		}
	}
	s.ints = append(s.ints, intAttr{k: key, v: d})
}

// SetStr sets a string attribute (source names, pattern text).
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.strs {
		if s.strs[i].k == key {
			s.strs[i].v = v
			return
		}
	}
	s.strs = append(s.strs, strAttr{k: key, v: v})
}

// Int returns an integer attribute's value and whether it is set.
func (s *Span) Int(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.ints {
		if a.k == key {
			return a.v, true
		}
	}
	return 0, false
}

// Str returns a string attribute's value and whether it is set.
func (s *Span) Str(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.strs {
		if a.k == key {
			return a.v, true
		}
	}
	return "", false
}

// Children returns a copy of the child span list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Find returns the first span in pre-order (including s itself) whose name
// matches, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if found := c.Find(name); found != nil {
			return found
		}
	}
	return nil
}

// FindAll returns every span in pre-order whose name matches.
func (s *Span) FindAll(name string) []*Span {
	if s == nil {
		return nil
	}
	var out []*Span
	if s.name == name {
		out = append(out, s)
	}
	for _, c := range s.Children() {
		out = append(out, c.FindAll(name)...)
	}
	return out
}

// render writes the span and its subtree, indented by depth.
func (s *Span) render(b *strings.Builder, depth int) {
	s.mu.Lock()
	name, dur := s.name, s.dur
	ints := append([]intAttr(nil), s.ints...)
	strs := append([]strAttr(nil), s.strs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(name)
	fmt.Fprintf(b, " (%s)", formatDur(dur))
	for _, a := range strs {
		fmt.Fprintf(b, " %s=%s", a.k, a.v)
	}
	for _, a := range ints {
		fmt.Fprintf(b, " %s=%d", a.k, a.v)
	}
	b.WriteByte('\n')
	for _, c := range children {
		c.render(b, depth+1)
	}
}

// formatDur renders a duration compactly with µs/ms/s units.
func formatDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// SpanDump is the JSON form of a span subtree, served by /debug/trace.
type SpanDump struct {
	Name       string            `json:"name"`
	DurationUS float64           `json:"duration_us"`
	Ints       map[string]int64  `json:"ints,omitempty"`
	Strs       map[string]string `json:"strs,omitempty"`
	Children   []SpanDump        `json:"children,omitempty"`
}

// Dump converts the span subtree to its JSON-ready form.
func (s *Span) Dump() SpanDump {
	if s == nil {
		return SpanDump{}
	}
	s.mu.Lock()
	d := SpanDump{
		Name:       s.name,
		DurationUS: float64(s.dur) / float64(time.Microsecond),
	}
	if len(s.ints) > 0 {
		d.Ints = make(map[string]int64, len(s.ints))
		for _, a := range s.ints {
			d.Ints[a.k] = a.v
		}
	}
	if len(s.strs) > 0 {
		d.Strs = make(map[string]string, len(s.strs))
		for _, a := range s.strs {
			d.Strs[a.k] = a.v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.Dump())
	}
	return d
}

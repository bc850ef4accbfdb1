package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceTree(t *testing.T) {
	tr := NewTrace("query")
	bgp := tr.Root().Child("bgp")
	p1 := bgp.Child("pattern")
	p1.SetStr("tp", "?s ?p ?o")
	p1.SetInt("in", 1)
	p1.SetInt("out", 40)
	p1.AddInt("rewrites", 2)
	p1.AddInt("rewrites", 3)
	p1.End()
	bgp.End()
	tr.Finish()

	if got, _ := p1.Int("rewrites"); got != 5 {
		t.Fatalf("rewrites = %d, want 5", got)
	}
	if got, _ := p1.Str("tp"); got != "?s ?p ?o" {
		t.Fatalf("tp attr = %q", got)
	}
	if tr.Find("pattern") != p1 {
		t.Fatal("Find did not locate the pattern span")
	}
	if n := len(tr.Root().FindAll("pattern")); n != 1 {
		t.Fatalf("FindAll found %d spans, want 1", n)
	}
	if tr.Root().Duration() <= 0 || p1.Duration() <= 0 {
		t.Fatal("durations must be set after End/Finish")
	}

	out := tr.String()
	for _, want := range []string{"query", "bgp", "pattern", "in=1", "out=40", "rewrites=5", "tp=?s ?p ?o"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	// Children render one indent level below their parent.
	if !strings.Contains(out, "\n  bgp") || !strings.Contains(out, "\n    pattern") {
		t.Fatalf("indentation wrong:\n%s", out)
	}
}

func TestSpanOverwriteAttrs(t *testing.T) {
	sp := NewTrace("t").Root()
	sp.SetInt("rows", 1)
	sp.SetInt("rows", 9)
	sp.SetStr("src", "a")
	sp.SetStr("src", "b")
	if v, _ := sp.Int("rows"); v != 9 {
		t.Fatalf("rows = %d, want 9", v)
	}
	if v, _ := sp.Str("src"); v != "b" {
		t.Fatalf("src = %q, want b", v)
	}
}

func TestSpanConcurrent(t *testing.T) {
	tr := NewTrace("parallel")
	root := tr.Root()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c := root.Child("row")
				c.AddInt("n", 1)
				c.End()
				root.AddInt("total", 1)
			}
		}()
	}
	// Render concurrently with mutation.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = tr.String()
		}
	}()
	wg.Wait()
	<-done
	tr.Finish()
	if got := len(root.Children()); got != 8*500 {
		t.Fatalf("children = %d, want %d", got, 8*500)
	}
	if v, _ := root.Int("total"); v != 8*500 {
		t.Fatalf("total = %d, want %d", v, 8*500)
	}
}

func TestTraceJSON(t *testing.T) {
	tr := NewTrace("query")
	c := tr.Root().Child("stage")
	c.SetInt("rows", 3)
	c.SetStr("src", "dbpedia")
	time.Sleep(time.Millisecond)
	c.End()
	tr.Finish()
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var dump SpanDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Name != "query" || len(dump.Children) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	child := dump.Children[0]
	if child.Ints["rows"] != 3 || child.Strs["src"] != "dbpedia" || child.DurationUS <= 0 {
		t.Fatalf("child dump = %+v", child)
	}
}

func TestTraceInContext(t *testing.T) {
	if tr := TraceFrom(context.Background()); tr != nil {
		t.Fatalf("TraceFrom of a bare context = %v, want nil", tr)
	}
	tr := NewTrace("query")
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(context.WithValue(ctx, struct{}{}, 1)); got != tr {
		t.Fatal("TraceFrom lost the trace under a derived context")
	}
	TraceFrom(ctx).Root().SetStr("cache", "hit")
	if v, _ := tr.Root().Str("cache"); v != "hit" {
		t.Errorf("root cache = %q, want hit", v)
	}
}

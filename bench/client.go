package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
)

// digest reduces one SPARQL reply to what the correctness check compares:
// the row count and an order-independent hash of the rows.
type digest struct {
	rows int
	hash uint64
}

// request is one pre-generated SPARQL protocol request with the golden
// digest its reply must match.
type request struct {
	tpl   string // template name, for per-template layer metrics
	query string
	form  string // url-encoded POST body
	want  digest
}

func newRequest(tpl, query string) request {
	return request{tpl: tpl, query: query, form: url.Values{"query": {query}}.Encode()}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// digestResults digests a "SPARQL 1.1 Query Results JSON" document
// without decoding it: each top-level object of results.bindings is one
// row, hashed as bytes (encoding/json writes map keys sorted, so a row's
// bytes are canonical) and summed so row order does not matter. The head
// is hashed too. An ASK reply digests to one row for true, none for false.
func digestResults(body []byte) (digest, bool) {
	const marker = `"bindings":[`
	at := bytes.Index(body, []byte(marker))
	if at < 0 {
		switch {
		case bytes.Contains(body, []byte(`"boolean":true`)):
			return digest{rows: 1, hash: 1}, true
		case bytes.Contains(body, []byte(`"boolean":false`)):
			return digest{}, true
		}
		return digest{}, false
	}
	d := digest{hash: fnv1a(fnvOffset, body[:at])}
	depth, start := 0, 0
	inString, escaped := false, false
	for i := at + len(marker); i < len(body); i++ {
		c := body[i]
		if inString {
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
		case '{':
			if depth == 0 {
				start = i
			}
			depth++
		case '}':
			depth--
			if depth == 0 {
				d.rows++
				d.hash += fnv1a(fnvOffset, body[start:i+1])
			}
		case ']':
			if depth == 0 {
				return d, true
			}
		}
	}
	return digest{}, false // truncated document
}

// client is one closed-loop caller: its own keep-alive connection and a
// reused read buffer, so the harness adds as little as it can to the
// process's CPU and allocation counts.
type client struct {
	http *http.Client
	tr   *http.Transport
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{http: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends body to path and leaves the reply in c.buf.
func (c *client) post(path, contentType, body string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// query posts one SPARQL request and checks the reply against its golden
// digest. Any transport error, non-200 status (a shed request is a 503),
// undecodable reply or digest mismatch is a failure.
func (c *client) query(r *request) bool {
	status, err := c.post("/sparql", "application/x-www-form-urlencoded", r.form)
	if err != nil || status != http.StatusOK {
		return false
	}
	got, ok := digestResults(c.buf.Bytes())
	return ok && got == r.want
}

// serveInProcess answers one request through the handler with no socket:
// the path goldens are computed through and the traced run times as
// endpoint.handler_us.
func serveInProcess(h http.Handler, r *request) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(r.form))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// fillGoldens computes the golden digest of every request once, serially,
// through the handler's public entry point. It refuses a stack whose
// replies it cannot digest or that answers a template with no rows at all
// — a benchmark over empty answers would time nothing.
func fillGoldens(h http.Handler, reqs []request) error {
	rows := map[string]int{}
	for i := range reqs {
		r := &reqs[i]
		status, body := serveInProcess(h, r)
		if status != http.StatusOK {
			return fmt.Errorf("golden for %s query: HTTP %d: %s", r.tpl, status, strings.TrimSpace(string(body)))
		}
		d, ok := digestResults(body)
		if !ok {
			return fmt.Errorf("golden for %s query: undecodable reply %q", r.tpl, truncate(body, 120))
		}
		r.want = d
		rows[r.tpl] += d.rows
	}
	for tpl, n := range rows {
		if n == 0 {
			return fmt.Errorf("template %s returns no rows on any request", tpl)
		}
	}
	return nil
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

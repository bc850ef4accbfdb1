package rdf

import (
	"bytes"
	"fmt"
	"strings"

	"alex/internal/par"
)

// The N-Triples front end. With more than one worker the input is split on
// line boundaries into roughly equal chunks, and each chunk is parsed on a
// worker goroutine. Each chunk is copied once, into one string, and its
// terms are substrings of that string. The chunks' triples come back in
// input order, one slice per chunk, so the result does not depend on the
// worker count, and the error reported is the earliest offending line's.

// ntChunk is one line-aligned slice of the input.
type ntChunk struct {
	data      []byte
	startLine int // 1-based line number of the chunk's first line
	newlines  int // '\n' bytes in data
}

// splitNTriples cuts data into at most n line-aligned chunks and records
// each chunk's starting line number for error reporting.
func splitNTriples(data []byte, n int) []ntChunk {
	if n < 1 {
		n = 1
	}
	approx := len(data)/n + 1
	out := make([]ntChunk, 0, n)
	line := 1
	for start := 0; start < len(data); {
		end := start + approx
		if end >= len(data) {
			end = len(data)
		} else if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
			end += nl + 1
		} else {
			end = len(data)
		}
		newlines := bytes.Count(data[start:end], []byte{'\n'})
		out = append(out, ntChunk{data: data[start:end], startLine: line, newlines: newlines})
		line += newlines
		start = end
	}
	return out
}

// parseChunk parses one chunk: blank lines and #-comments are skipped, and
// errors are *ParseError with the global (whole-input) line number. The
// chunk is copied into one string; the lines and terms are slices of it,
// and the triples go into one slice sized by the line count.
func parseChunk(c ntChunk) ([]Triple, error) {
	text := string(c.data)
	out := make([]Triple, 0, c.newlines+1)
	line := c.startLine - 1
	for len(text) > 0 {
		var raw string
		raw, text, _ = strings.Cut(text, "\n")
		line++
		raw = strings.TrimSpace(raw)
		if raw == "" || raw[0] == '#' {
			continue
		}
		t, err := parseNTriplesLine(raw)
		if err != nil {
			return nil, &ParseError{Line: line, Msg: err.Error()}
		}
		out = append(out, t)
	}
	return out, nil
}

// ParseNTriples parses a complete N-Triples document on up to workers
// goroutines and returns its triples in input order, one slice per chunk
// the input was parsed in (one chunk when workers <= 1). The terms of a
// chunk's triples share that chunk's one copy of the text. On a malformed
// line it returns no triples and that line's *ParseError, wrapped as
// "ntriples: line N: …"; of several malformed lines, the earliest wins.
func ParseNTriples(data []byte, workers int) ([][]Triple, error) {
	chunks := []ntChunk{{data: data, startLine: 1, newlines: bytes.Count(data, []byte{'\n'})}}
	if workers > 1 {
		chunks = splitNTriples(data, workers*4)
	}
	results := make([][]Triple, len(chunks))
	errs := make([]error, len(chunks))
	par.Do(len(chunks), workers, func(_, i int) {
		results[i], errs[i] = parseChunk(chunks[i])
	})
	for _, err := range errs { // chunk order = line order: earliest error wins
		if err != nil {
			return nil, fmt.Errorf("ntriples: %w", err)
		}
	}
	return results, nil
}

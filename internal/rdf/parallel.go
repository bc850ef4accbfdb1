package rdf

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"alex/internal/par"
)

// The N-Triples front end. With more than one worker the input is split on
// line boundaries into roughly equal chunks, each chunk is parsed on a
// worker goroutine, and the chunks' triples are concatenated in input
// order — so the result does not depend on the worker count, and the error
// reported is the earliest offending line's.

// ntChunk is one line-aligned slice of the input.
type ntChunk struct {
	data      []byte
	startLine int // 1-based line number of the chunk's first line
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
		out = append(out, ntChunk{data: data[start:end], startLine: line})
		line += bytes.Count(data[start:end], []byte{'\n'})
		start = end
	}
	return out
}

// parseChunk parses one chunk: blank lines and #-comments are skipped, and
// errors are *ParseError with the global (whole-input) line number.
func parseChunk(c ntChunk) ([]Triple, error) {
	var out []Triple
	data := c.data
	line := c.startLine - 1
	for len(data) > 0 {
		var raw []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			raw, data = data[:nl], data[nl+1:]
		} else {
			raw, data = data, nil
		}
		line++
		text := strings.TrimSpace(string(raw))
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		t, err := parseNTriplesLine(text)
		if err != nil {
			return nil, &ParseError{Line: line, Msg: err.Error()}
		}
		out = append(out, t)
	}
	return out, nil
}

// ParseNTriples parses a complete N-Triples document on up to workers
// goroutines and returns its triples in input order, with the number of
// chunks the input was parsed in (one when workers <= 1). On a malformed
// line it returns no triples and that line's *ParseError, wrapped as
// "ntriples: line N: …"; of several malformed lines, the earliest wins.
func ParseNTriples(data []byte, workers int) ([]Triple, int, error) {
	chunks := []ntChunk{{data: data, startLine: 1}}
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
			return nil, len(chunks), fmt.Errorf("ntriples: %w", err)
		}
	}
	return slices.Concat(results...), len(chunks), nil
}

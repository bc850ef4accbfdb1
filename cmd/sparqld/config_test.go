package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidate runs one command line per rule through run and checks its
// exit status: 2 for a usage error (a flag error or a violated rule between
// flags), 1 for a load error. None of them gets as far as listening.
func TestValidate(t *testing.T) {
	dir := t.TempDir()
	dbp, nyt, links := writeFixtures(t, dir)
	state := filepath.Join(dir, "state")
	otherDBp := filepath.Join(t.TempDir(), "dbpedia.ttl")
	missing := filepath.Join(dir, "missing.nt")
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no -data", []string{"-addr", ":0"}, 2},
		{"unknown flag", []string{"-data", dbp, "-partial-ok"}, 2},
		{"-feedback with one -data", []string{"-data", dbp, "-feedback"}, 2},
		{"-feedback with -data-dir", []string{"-data", dbp, "-data", nyt, "-feedback", "-data-dir", state}, 2},
		{"bad -wal-fsync", []string{"-data", dbp, "-data-dir", state, "-wal-fsync", "sometimes"}, 2},
		{"one store name twice under -data-dir", []string{"-data", dbp, "-data", otherDBp, "-data-dir", state}, 2},
		{"missing -data file", []string{"-data", missing}, 1},
		{"missing -data file under -data-dir", []string{"-data", dbp, "-data", missing, "-data-dir", state}, 1},
		{"missing -links file", []string{"-data", dbp, "-data", nyt, "-links", missing}, 1},
		{"-h", []string{"-h"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			if got := run(tc.args, &stderr); got != tc.want {
				t.Errorf("exit status %d, want %d; stderr: %s", got, tc.want, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Error("nothing reported on stderr")
			}
		})
	}

	// Without -data-dir two stores may share a name: nothing on disk is
	// keyed by it.
	if _, err := parseConfig([]string{"-data", dbp, "-data", otherDBp, "-links", links}, &strings.Builder{}); err != nil {
		t.Errorf("shared store name without -data-dir rejected: %v", err)
	}
}

// TestReadmeInvocations parses every sparqld command line in README.md's
// code blocks — a line starting with `sparqld ` or `go run ./cmd/sparqld `,
// with `\` continuations joined and a trailing `#` comment dropped — and
// requires parseConfig to accept it.
func TestReadmeInvocations(t *testing.T) {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	inBlock := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "```") {
			inBlock = !inBlock
			continue
		}
		if !inBlock {
			continue
		}
		if n := len(lines); n > 0 && strings.HasSuffix(lines[n-1], `\`) {
			lines[n-1] = strings.TrimSuffix(lines[n-1], `\`) + " " + line
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, line := range lines {
		args := strings.Fields(strings.TrimPrefix(line, "go run ./cmd/"))
		if len(args) == 0 || args[0] != "sparqld" {
			continue
		}
		args = args[1:]
		for i, a := range args {
			if strings.HasPrefix(a, "#") {
				args = args[:i]
				break
			}
		}
		found++
		var stderr strings.Builder
		if _, err := parseConfig(args, &stderr); err != nil {
			t.Errorf("README: %s\n%s", line, stderr.String())
		}
	}
	if found < 3 {
		t.Errorf("found %d sparqld invocations in README.md, want at least 3", found)
	}
}

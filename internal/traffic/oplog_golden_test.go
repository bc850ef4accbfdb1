package traffic

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"alex/internal/faultinject"
)

// This file pins the simulator's op logs across commits: the
// determinism tests compare runs of one build with each other, so a
// change that moves every run the same way passes them. testdata/
// oplog.golden holds the logs of a plain run (seed 42), a streaming run
// (seed 58) and a durable run, each with a NYTimes outage window.
//
// Regenerate with `go test ./internal/traffic -run TestOpLogGolden -update`
// only for an intended change of what the simulator does.

var updateOpLog = flag.Bool("update", false, "rewrite testdata/oplog.golden")

const opLogGoldenPath = "testdata/oplog.golden"

func TestOpLogGolden(t *testing.T) {
	runs := []struct {
		name    string
		seed    int64
		stream  bool
		durable bool
	}{
		{"plain", 42, false, false},
		{"stream", 58, true, false},
		{"durable", 42, false, true},
	}
	var got bytes.Buffer
	for _, r := range runs {
		var log bytes.Buffer
		cfg := testConfig(r.seed, 4, &log)
		cfg.Rounds = 20
		cfg.Outages = []faultinject.Window{{Source: dsName2, From: 6, To: 10}}
		cfg.Stream = r.stream
		if r.durable {
			cfg.DataDir = t.TempDir()
		}
		rep := mustRun(t, cfg)
		if n := len(rep.Violations); n != 0 {
			t.Fatalf("%s: violations = %d:\n%v", r.name, n, rep.Violations)
		}
		fmt.Fprintf(&got, "### %s seed=%d\n", r.name, r.seed)
		got.Write(log.Bytes())
	}
	text := got.String()
	for _, op := range []string{" feedback ", " feedback_http ", " live_upsert ", " crash_restart ",
		"outage NYTimes down", "outage NYTimes up"} {
		if !strings.Contains(text, op) {
			t.Errorf("golden runs never log %q", op)
		}
	}
	if *updateOpLog {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(opLogGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(opLogGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("op logs differ from %s (rerun with -update only for an intended change): %s",
			opLogGoldenPath, firstDiff(text, string(want)))
	}
}

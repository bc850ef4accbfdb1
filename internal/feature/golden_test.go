package feature

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"alex/internal/datagen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/space.golden from the current Build")

// TestSpaceGolden holds Build to the space recorded before per-term
// profiles and the shared DS2 side existed: the canonical dump of a full
// Build over DBpediaNYTimes(0.2, 1000) must hash to the recorded SHA-256
// at one worker and at four.
func TestSpaceGolden(t *testing.T) {
	p := datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, 1000))
	var got bytes.Buffer
	fmt.Fprintf(&got, "# SHA-256 of Space.DumpCanonical, full Build of DBpediaNYTimes(0.2, 1000). Regenerate with: go test ./internal/feature -run TestSpaceGolden -update\n")
	for _, workers := range []int{1, 4} {
		opt := DefaultOptions()
		opt.Workers = workers
		sp := Build(p.DS1, p.DS1.Subjects(), p.DS2, opt)
		h := sha256.New()
		if err := sp.DumpCanonical(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "workers=%d pairs=%d sha256=%x\n", workers, sp.Len(), h.Sum(nil))
	}
	path := filepath.Join("testdata", "space.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("space.golden differs:\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}

package feature

import (
	"runtime"
	"testing"

	"alex/internal/datagen"
)

// TestBuildWorkerCountInvariance: the space a parallel Build produces is
// structurally identical to a serial one — same pairs, same feature sets,
// same index order behind ExploreN.
func TestBuildWorkerCountInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	p := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.5, 23))
	subjects := p.DS1.Subjects()
	if len(subjects) < buildParallelThreshold {
		t.Fatalf("fixture too small to exercise the parallel path: %d subjects", len(subjects))
	}
	serial := Build(p.DS1, subjects, p.DS2, Options{Workers: 1})
	parallel := Build(p.DS1, subjects, p.DS2, Options{Workers: 8})

	if serial.Len() != parallel.Len() {
		t.Fatalf("pair counts differ: serial %d, parallel %d", serial.Len(), parallel.Len())
	}
	sLinks, pLinks := serial.Links(), parallel.Links()
	for i := range sLinks {
		if sLinks[i] != pLinks[i] {
			t.Fatalf("link %d differs: %v vs %v", i, sLinks[i], pLinks[i])
		}
	}
	for _, l := range sLinks {
		sf, _ := serial.FeatureSet(l)
		pf, ok := parallel.FeatureSet(l)
		if !ok {
			t.Fatalf("pair %v missing from parallel space", l)
		}
		if len(sf.Features) != len(pf.Features) {
			t.Fatalf("pair %v feature counts differ: %d vs %d", l, len(sf.Features), len(pf.Features))
		}
		for i := range sf.Features {
			if sf.Features[i] != pf.Features[i] || sf.Scores[i] != pf.Scores[i] {
				t.Fatalf("pair %v feature %d differs: %v=%g vs %v=%g",
					l, i, sf.Features[i], sf.Scores[i], pf.Features[i], pf.Scores[i])
			}
		}
	}
	sFeats, pFeats := serial.Features(), parallel.Features()
	if len(sFeats) != len(pFeats) {
		t.Fatalf("feature counts differ: %d vs %d", len(sFeats), len(pFeats))
	}
	for i, f := range sFeats {
		if f != pFeats[i] {
			t.Fatalf("feature %d differs: %v vs %v", i, f, pFeats[i])
		}
		se := serial.ExploreN(f, 0.5, 0.5, 0)
		pe := parallel.ExploreN(f, 0.5, 0.5, 0)
		if len(se) != len(pe) {
			t.Fatalf("ExploreN(%v) lengths differ: %d vs %d", f, len(se), len(pe))
		}
		for j := range se {
			if se[j] != pe[j] {
				t.Fatalf("ExploreN(%v)[%d] differs: %v vs %v", f, j, se[j], pe[j])
			}
		}
	}
}

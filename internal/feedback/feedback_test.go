package feedback

import (
	"math"
	"math/rand"
	"testing"

	"alex/internal/linkset"
	"alex/internal/rdf"
)

func truthSet() *linkset.Set {
	links := make([]linkset.Link, 50)
	for i := range links {
		links[i] = linkset.Link{Left: rdf.TermID((i + 1) * 10), Right: rdf.TermID((i + 1) * 10)}
	}
	return linkset.FromLinks(links)
}

func TestOraclePerfectFeedback(t *testing.T) {
	truth := truthSet()
	o := NewOracle(truth, 0, rand.New(rand.NewSource(1)))
	if !o.Judge(linkset.Link{Left: 10, Right: 10}) {
		t.Error("truth link rejected")
	}
	if o.Judge(linkset.Link{Left: 10, Right: 20}) {
		t.Error("wrong link approved")
	}
	if o.Judged() != 2 || o.Flipped() != 0 {
		t.Errorf("counters: judged=%d flipped=%d", o.Judged(), o.Flipped())
	}
}

func TestOracleErrorRate(t *testing.T) {
	truth := truthSet()
	o := NewOracle(truth, 0.2, rand.New(rand.NewSource(7)))
	wrong := 0
	const n = 5000
	for i := 0; i < n; i++ {
		l := linkset.Link{Left: 10, Right: 10} // a truth link
		if !o.Judge(l) {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if math.Abs(rate-0.2) > 0.03 {
		t.Errorf("observed flip rate %g, want ~0.2", rate)
	}
	if o.Flipped() != wrong {
		t.Errorf("Flipped = %d, observed wrong = %d", o.Flipped(), wrong)
	}
}

func TestOracleJudgeFunc(t *testing.T) {
	truth := truthSet()
	o := NewOracle(truth, 0, rand.New(rand.NewSource(1)))
	var j Judge = o.JudgeFunc()
	if !j(linkset.Link{Left: 10, Right: 10}) {
		t.Error("JudgeFunc lost oracle behavior")
	}
}

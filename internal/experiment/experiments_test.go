package experiment

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"alex/internal/datagen"
)

func TestRegistryComplete(t *testing.T) {
	// One experiment per paper artifact: Table 1, Figs 2-11 (2,3,4 have
	// sub-figures folded into one id each... 2a-2c etc. are separate), and
	// the §7.3 timing study.
	wantIDs := []string{
		"table1",
		"fig2a", "fig2b", "fig2c",
		"fig3a", "fig3b", "fig3c",
		"fig4a", "fig4b", "fig4c", "fig4d",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"timing", "summary",
	}
	if len(Experiments) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(Experiments), len(wantIDs))
	}
	for _, id := range wantIDs {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found nonexistent experiment")
	}
}

// TestQualityRowsFollowScenarios: quality row i draws the figure of
// datagen.Scenarios[i], whose description names the same figure.
func TestQualityRowsFollowScenarios(t *testing.T) {
	if len(qualityRows) != len(datagen.Scenarios) {
		t.Fatalf("%d quality rows, %d scenarios", len(qualityRows), len(datagen.Scenarios))
	}
	for i, sc := range datagen.Scenarios {
		fig, _, _ := strings.Cut(qualityRows[i].chart, ":")
		if !strings.HasPrefix(sc.Desc, fig+":") {
			t.Errorf("quality row %s (%s) is not scenario %s (%s)", qualityRows[i].id, fig, sc.ID, sc.Desc)
		}
	}
}

func TestRunProducesCurve(t *testing.T) {
	scale := 0.5
	if testing.Short() {
		scale = 0.3
	}
	res := Run(RunConfig{
		Spec: datagen.NBADBpediaNYTimes(scale, 3),
		Core: domainCore(3),
		Seed: 3,
	})
	if len(res.Points) == 0 {
		t.Fatal("no episodes")
	}
	if res.TruthSize == 0 || res.InitialCount == 0 {
		t.Errorf("setup numbers missing: %+v", res)
	}
	if res.ConvergedAt == 0 && len(res.Points) < domainCore(3).MaxEpisodes {
		t.Error("run stopped without recording convergence")
	}
	var buf bytes.Buffer
	res.PrintCurve(&buf)
	out := buf.String()
	if !strings.Contains(out, "episode   0") || !strings.Contains(out, "discovered") {
		t.Errorf("PrintCurve output malformed:\n%s", out)
	}
}

// TestFig2bShape is the regression test for the paper's clearest claim: in
// the low-precision/high-recall regime, ALEX's work is removing incorrect
// links — precision must rise substantially while recall stays high.
func TestFig2bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale drugbank curve; shape is covered by the golden tests in -short")
	}
	res := Run(RunConfig{
		Spec: datagen.DBpediaDrugbank(1, 42),
		Core: batchCore(42),
		Seed: 42,
	})
	if res.Initial.Precision > 0.6 {
		t.Errorf("initial precision = %.3f, want low", res.Initial.Precision)
	}
	if res.Initial.Recall < 0.8 {
		t.Errorf("initial recall = %.3f, want high", res.Initial.Recall)
	}
	if res.Final.Precision < res.Initial.Precision+0.3 {
		t.Errorf("precision did not rise substantially: %.3f -> %.3f",
			res.Initial.Precision, res.Final.Precision)
	}
	if res.Final.Recall < 0.8 {
		t.Errorf("final recall = %.3f, want preserved high", res.Final.Recall)
	}
}

// TestFig2aShape checks the high-precision/low-recall regime: recall must
// improve substantially via discovered links.
func TestFig2aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fig2a run; golden_test.go covers the shape in -short")
	}
	res := Run(RunConfig{
		Spec: datagen.DBpediaNYTimes(1, 42),
		Core: batchCore(42),
		Seed: 42,
	})
	if res.Initial.Recall > 0.5 {
		t.Errorf("initial recall = %.3f, want low", res.Initial.Recall)
	}
	if res.Final.Recall < res.Initial.Recall+0.15 {
		t.Errorf("recall did not improve: %.3f -> %.3f", res.Initial.Recall, res.Final.Recall)
	}
	if res.NewCorrect == 0 {
		t.Error("no new links discovered")
	}
	if res.Final.FMeasure <= res.Initial.FMeasure {
		t.Errorf("F did not improve: %.3f -> %.3f", res.Initial.FMeasure, res.Final.FMeasure)
	}
}

// TestFig7Shape: without rollback, quality at the episode cap must be far
// below the with-rollback run (the paper's Fig 7(a) collapse).
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-scale runs; skipped in -short")
	}
	with := Run(RunConfig{
		Spec: datagen.DBpediaNYTimes(1, 42),
		Core: batchCore(42),
		Seed: 42,
	})
	noRB := batchCore(42).DisableRollback()
	noRB.MaxEpisodes = 40 // cap for test speed; collapse shows well before 100
	without := Run(RunConfig{
		Spec: datagen.DBpediaNYTimes(1, 42),
		Core: noRB,
		Seed: 42,
	})
	if without.Final.Precision > with.Final.Precision/2 {
		t.Errorf("without-rollback precision %.3f not clearly below with-rollback %.3f",
			without.Final.Precision, with.Final.Precision)
	}
}

func TestExperimentRunnersSmoke(t *testing.T) {
	// Fast smoke: table1 and fig5 run at reduced scale without error.
	for _, id := range []string{"table1", "fig5"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if charts := e.Run(&buf, Options{Scale: 0.3, Seed: 7}); len(charts) != 0 {
			t.Errorf("%s drew %d charts, want none", id, len(charts))
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestHelpers(t *testing.T) {
	pts := []Point{{NegShare: 0.2}, {NegShare: 0.4}}
	if got := avgNeg(pts); got < 0.299 || got > 0.301 {
		t.Errorf("avgNeg = %g", got)
	}
	if avgNeg(nil) != 0 {
		t.Error("avgNeg(nil) != 0")
	}
	if got := firstN(pts, 1); len(got) != 1 {
		t.Errorf("firstN = %v", got)
	}
	if got := firstN(pts, 5); len(got) != 2 {
		t.Errorf("firstN beyond len = %v", got)
	}
	if maxLen(2, 3) != 3 || maxLen(3, 2) != 3 {
		t.Error("maxLen")
	}
	if fOrDash(pts, 5, func(Point) float64 { return 0 }) != "-" {
		t.Error("fOrDash out of range")
	}
	if fOrDash(pts, 0, func(p Point) float64 { return p.NegShare }) != "0.200" {
		t.Error("fOrDash format")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Seed != 42 {
		t.Errorf("defaults = %+v", o)
	}
	o2 := Options{Scale: 0.5, Seed: 9}.withDefaults()
	if o2.Scale != 0.5 || o2.Seed != 9 {
		t.Errorf("explicit options overwritten: %+v", o2)
	}
}

// TestAllExperimentsSmoke runs every registered experiment end-to-end at
// reduced scale: the full harness must execute without error and produce
// output, whatever the quality numbers are at this size.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(&buf, Options{Scale: 0.2, Seed: 11})
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

func TestQualityChartSeriesLengths(t *testing.T) {
	scale := 0.4
	if testing.Short() {
		scale = 0.25
	}
	res := Run(RunConfig{
		Spec: datagen.NBADBpediaNYTimes(scale, 3),
		Core: domainCore(3),
		Seed: 3,
	})
	c := res.QualityChart("t")
	if len(c.Series) != 3 {
		t.Fatalf("series = %d", len(c.Series))
	}
	want := len(res.Points) + 1
	for _, s := range c.Series {
		if len(s.Y) != want {
			t.Errorf("series %s has %d points, want %d", s.Name, len(s.Y), want)
		}
	}
}

// TestNoisyRunIgnoresWorkers: with incorrect feedback, which verdicts flip
// depends on the order links are judged in, so the run must come out the
// same at any worker count.
func TestNoisyRunIgnoresWorkers(t *testing.T) {
	run := func(workers int) *Result {
		cc := batchCore(42)
		cc.BlacklistNegatives = 3
		cc.Workers = workers
		return Run(RunConfig{Spec: datagen.DBpediaNYTimes(0.2, 42), Core: cc, ErrorRate: 0.1, Seed: 42})
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial.Points, parallel.Points) {
		t.Errorf("noisy run differs by worker count: %d episodes at 1 worker, %d at 4", len(serial.Points), len(parallel.Points))
	}
}

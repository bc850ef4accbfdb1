// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact — see DESIGN.md's per-experiment index), plus
// micro-benchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks execute the complete pipeline (generate data →
// PARIS → ALEX to convergence) and report the paper's headline metrics as
// custom benchmark units (final F-measure, episodes to convergence, links
// discovered) so the series can be read straight off the bench output.
package alex_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"alex/internal/core"
	"alex/internal/datagen"
	"alex/internal/endpoint"
	"alex/internal/experiment"
	"alex/internal/feature"
	"alex/internal/fed"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/sim"
	"alex/internal/sparql"
	"alex/internal/store"
)

// benchSeed keeps every benchmark deterministic.
const benchSeed = 42

func batchCfg() core.Config {
	c := core.Defaults()
	c.EpisodeSize = 100
	c.Partitions = 8
	c.Seed = benchSeed
	return c
}

func domainCfg() core.Config {
	c := core.Defaults()
	c.EpisodeSize = 10
	c.Partitions = 2
	c.MaxEpisodes = 60
	c.Seed = benchSeed
	return c
}

// runQuality executes one full pipeline per iteration and reports the
// figure's headline numbers.
func runQuality(b *testing.B, spec datagen.PairSpec, cfg core.Config) {
	b.Helper()
	var res *experiment.Result
	for i := 0; i < b.N; i++ {
		res = experiment.Run(experiment.RunConfig{Spec: spec, Core: cfg, Seed: benchSeed})
	}
	b.ReportMetric(res.Final.FMeasure, "final-F")
	b.ReportMetric(res.Final.Recall, "final-R")
	b.ReportMetric(res.Final.Precision, "final-P")
	b.ReportMetric(float64(len(res.Points)), "episodes")
	b.ReportMetric(float64(res.NewCorrect), "new-links")
}

// --- Table 1 ---

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := mustExperiment(b, "table1"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2: batch mode quality ---

func BenchmarkFig2aDBpediaNYTimes(b *testing.B) {
	runQuality(b, datagen.DBpediaNYTimes(1, benchSeed), batchCfg())
}

func BenchmarkFig2bDBpediaDrugbank(b *testing.B) {
	runQuality(b, datagen.DBpediaDrugbank(1, benchSeed), batchCfg())
}

func BenchmarkFig2cDBpediaLexvo(b *testing.B) {
	runQuality(b, datagen.DBpediaLexvo(1, benchSeed), batchCfg())
}

// --- Figure 3: OpenCyc pairs ---

func BenchmarkFig3aOpenCycNYTimes(b *testing.B) {
	runQuality(b, datagen.OpenCycNYTimes(1, benchSeed), batchCfg())
}

func BenchmarkFig3bOpenCycDrugbank(b *testing.B) {
	runQuality(b, datagen.OpenCycDrugbank(1, benchSeed), batchCfg())
}

func BenchmarkFig3cOpenCycLexvo(b *testing.B) {
	runQuality(b, datagen.OpenCycLexvo(1, benchSeed), batchCfg())
}

// --- Figure 4: specific domains ---

func BenchmarkFig4aDBpediaDogfood(b *testing.B) {
	runQuality(b, datagen.DBpediaDogfood(1, benchSeed), domainCfg())
}

func BenchmarkFig4bOpenCycDogfood(b *testing.B) {
	runQuality(b, datagen.OpenCycDogfood(1, benchSeed), domainCfg())
}

func BenchmarkFig4cNBADBpediaNYTimes(b *testing.B) {
	runQuality(b, datagen.NBADBpediaNYTimes(1, benchSeed), domainCfg())
}

func BenchmarkFig4dNBAOpenCycNYTimes(b *testing.B) {
	runQuality(b, datagen.NBAOpenCycNYTimes(1, benchSeed), domainCfg())
}

// --- Figure 5: search-space filtering ---

func BenchmarkFig5SearchSpaceFilter(b *testing.B) {
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(1, benchSeed))
	parts := feature.Partition(pair.DS1.Subjects(), 8)
	b.ResetTimer()
	var sp *feature.Space
	for i := 0; i < b.N; i++ {
		sp = feature.Build(pair.DS1, parts[0], pair.DS2, feature.DefaultOptions())
	}
	b.ReportMetric(float64(sp.TotalPairs()), "total-pairs")
	b.ReportMetric(float64(sp.Len()), "filtered-pairs")
	b.ReportMetric(100*float64(sp.Len())/float64(sp.TotalPairs()), "filtered-%")
}

// --- Figure 6: blacklist ablation ---

func BenchmarkFig6Blacklist(b *testing.B) {
	b.Run("with", func(b *testing.B) {
		var res *experiment.Result
		for i := 0; i < b.N; i++ {
			res = experiment.Run(experiment.RunConfig{
				Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: batchCfg(), Seed: benchSeed,
			})
		}
		b.ReportMetric(avgNegShare(res), "avg-neg-%")
		b.ReportMetric(res.Final.FMeasure, "final-F")
	})
	b.Run("without", func(b *testing.B) {
		var res *experiment.Result
		for i := 0; i < b.N; i++ {
			res = experiment.Run(experiment.RunConfig{
				Spec: datagen.DBpediaNYTimes(1, benchSeed),
				Core: batchCfg().DisableBlacklist(), Seed: benchSeed,
			})
		}
		b.ReportMetric(avgNegShare(res), "avg-neg-%")
		b.ReportMetric(res.Final.FMeasure, "final-F")
	})
}

// --- Figure 7: rollback ablation ---

func BenchmarkFig7Rollback(b *testing.B) {
	b.Run("with", func(b *testing.B) {
		var res *experiment.Result
		for i := 0; i < b.N; i++ {
			res = experiment.Run(experiment.RunConfig{
				Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: batchCfg(), Seed: benchSeed,
			})
		}
		b.ReportMetric(res.Final.FMeasure, "final-F")
		b.ReportMetric(float64(len(res.Points)), "episodes")
	})
	b.Run("without", func(b *testing.B) {
		var res *experiment.Result
		for i := 0; i < b.N; i++ {
			res = experiment.Run(experiment.RunConfig{
				Spec: datagen.DBpediaNYTimes(1, benchSeed),
				Core: batchCfg().DisableRollback(), Seed: benchSeed,
			})
		}
		b.ReportMetric(res.Final.FMeasure, "final-F")
		b.ReportMetric(float64(len(res.Points)), "episodes")
	})
}

// --- Figure 8: multi-domain stress test ---

func BenchmarkFig8MultiDomain(b *testing.B) {
	runQuality(b, datagen.DBpediaOpenCyc(1, benchSeed), batchCfg())
}

// --- Figure 9: incorrect feedback ---

func BenchmarkFig9IncorrectFeedback(b *testing.B) {
	for _, tc := range []struct {
		name string
		rate float64
		bl   int
	}{{"clean", 0, 1}, {"err10pct", 0.10, 3}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := batchCfg()
			// The noisy run uses the noise-tolerant blacklist threshold,
			// matching the fig9 experiment (see Config.BlacklistNegatives).
			cfg.BlacklistNegatives = tc.bl
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				res = experiment.Run(experiment.RunConfig{
					Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: cfg,
					ErrorRate: tc.rate, Seed: benchSeed,
				})
			}
			b.ReportMetric(res.Final.FMeasure, "final-F")
			b.ReportMetric(res.Final.Recall, "final-R")
			b.ReportMetric(res.Final.Precision, "final-P")
		})
	}
}

// --- Figure 10: step-size sensitivity ---

func BenchmarkFig10StepSize(b *testing.B) {
	for _, tc := range []struct {
		name string
		step float64
	}{{"0.01", 0.01}, {"0.05", 0.05}, {"0.10", 0.10}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := batchCfg()
			cfg.StepSize = tc.step
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				res = experiment.Run(experiment.RunConfig{
					Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: cfg, Seed: benchSeed,
				})
			}
			b.ReportMetric(res.Final.FMeasure, "final-F")
			b.ReportMetric(res.Final.Recall, "final-R")
			b.ReportMetric(avgNegShare(res), "avg-neg-%")
		})
	}
}

// --- Figure 11: episode-size sensitivity ---

func BenchmarkFig11EpisodeSize(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int
	}{{"50", 50}, {"100", 100}, {"150", 150}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := batchCfg()
			cfg.EpisodeSize = tc.size
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				res = experiment.Run(experiment.RunConfig{
					Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: cfg, Seed: benchSeed,
				})
			}
			b.ReportMetric(res.Final.FMeasure, "final-F")
			b.ReportMetric(float64(len(res.Points)), "episodes")
		})
	}
}

// --- Section 7.3: execution time ---

func BenchmarkTimingBatch(b *testing.B) {
	var res *experiment.Result
	for i := 0; i < b.N; i++ {
		res = experiment.Run(experiment.RunConfig{
			Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: batchCfg(), Seed: benchSeed,
		})
	}
	perEpisode := res.Duration.Seconds() / float64(maxInt(1, len(res.Points)))
	b.ReportMetric(perEpisode*1000, "ms/episode")
}

func BenchmarkTimingDomain(b *testing.B) {
	var res *experiment.Result
	for i := 0; i < b.N; i++ {
		res = experiment.Run(experiment.RunConfig{
			Spec: datagen.NBADBpediaNYTimes(1, benchSeed), Core: domainCfg(), Seed: benchSeed,
		})
	}
	perEpisode := res.Duration.Seconds() / float64(maxInt(1, len(res.Points)))
	b.ReportMetric(perEpisode*1000, "ms/episode")
}

// --- Substrate micro-benchmarks ---

func BenchmarkStoreMatchBySubject(b *testing.B) {
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(1, benchSeed))
	subjects := pair.DS1.Subjects()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := subjects[i%len(subjects)]
		pair.DS1.Match(s, rdf.NoTerm, rdf.NoTerm)
	}
}

func BenchmarkSPARQLParse(b *testing.B) {
	q := `PREFIX dbo: <http://dbpedia.sim/ontology/>
	SELECT DISTINCT ?p ?t WHERE {
		?p dbo:team ?t ; dbo:position "PG" .
		OPTIONAL { ?p dbo:height ?h }
		FILTER(REGEX(?t, "^[A-Z]") && ?t != "None")
	} ORDER BY ?p LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// evalStore is one single-store evaluation as the benchmarks below time it:
// compile the parsed query, evaluate, decode the rows.
func evalStore(st *store.Store, q *sparql.Query, opts sparql.EvalOptions) (*sparql.Result, error) {
	res, err := sparql.Compile(q).Eval(context.Background(), sparql.StoreSolver(st), opts)
	if err != nil {
		return nil, err
	}
	return res.Materialize(), nil
}

func BenchmarkSPARQLExecuteJoin(b *testing.B) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, benchSeed))
	q, err := sparql.Parse(`SELECT ?p ?t WHERE {
		?p <http://dbpedia.sim/ontology/position> "PG" .
		?p <http://dbpedia.sim/ontology/team> ?t .
	}`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evalStore(pair.DS1, q, sparql.EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalSlotRows is the engine's headline number: a two-pattern
// join over id rows, decoded at the end. The interesting number is
// allocs/op — late materialization's whole point. (The map-row engine it
// was A/B'd against is the test files' reference model now, and no longer
// importable from here; its last pin was 3.7× this one.)
func BenchmarkEvalSlotRows(b *testing.B) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, benchSeed))
	q, err := sparql.Parse(`SELECT ?p ?t WHERE {
		?p <http://dbpedia.sim/ontology/position> "PG" .
		?p <http://dbpedia.sim/ontology/team> ?t .
	}`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("slot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := evalStore(pair.DS1, q, sparql.EvalOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalPlanOrder measures the single-store selectivity planner: a
// join written worst-pattern-first (an unselective label scan ahead of an
// exact position probe), planned vs written order.
func BenchmarkEvalPlanOrder(b *testing.B) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, benchSeed))
	q, err := sparql.Parse(`SELECT ?p ?t WHERE {
		?p <http://dbpedia.sim/ontology/label> ?anything .
		?p <http://dbpedia.sim/ontology/position> "PG" .
		?p <http://dbpedia.sim/ontology/team> ?t .
	}`)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts sparql.EvalOptions
	}{{"planned", sparql.EvalOptions{}}, {"naive", sparql.EvalOptions{DisablePlan: true}}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := evalStore(pair.DS1, q, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimilarityStringSim times the string kernel the way the engine
// runs it: prebuilt profiles scored through one long-lived Scratch, one cell
// an op, cycling over the three cell shapes PERF.md counted in a link_batch
// matrix and one pair of literals past 64 runes (the kernel's second mask
// word). Consecutive cells differ, so the kernel's table is refilled on
// every call — the worst case; a matrix column refills it once. Scoring
// must not allocate. (Until PR 19 this timed sim.StringSim(string, string),
// which prepares both strings per call, a path the engine never runs; the
// name stays because the gate's baseline pins it.)
func BenchmarkSimilarityStringSim(b *testing.B) {
	const long = "Global Pacific Media Group is a fictional publisher of newspapers, magazines and wire stories"
	profile := sim.NewProfile
	cells := [][2]*sim.Profile{
		{profile(rdf.NewIRI("http://dbpedia.sim/resource/LeBron_James")), profile(rdf.NewString("James, LeBron"))},
		{profile(rdf.NewString("University of Waterloo")), profile(rdf.NewString("Univeristy of Waterloo"))},
		{profile(rdf.NewIRI("http://dbpedia.sim/resource/Miami_Heat")), profile(rdf.NewIRI("http://nytimes.sim/topic/Miami_Heat_(NBA)"))},
		{profile(rdf.NewString(long[:70])), profile(rdf.NewString(long))},
	}
	var sc sim.Scratch
	i := 0
	score := func() {
		c := cells[i%len(cells)]
		c[0].Sim(c[1], &sc)
		i++
	}
	if allocs := testing.AllocsPerRun(100, score); allocs != 0 {
		b.Fatalf("%.2f allocations per cell through a warmed Scratch, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		score()
	}
}

func BenchmarkParisLink(b *testing.B) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paris.Link(pair.DS1, pair.DS2, paris.DefaultConfig())
	}
}

func BenchmarkFeatureSpaceBuild(b *testing.B) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, benchSeed))
	subjects := pair.DS1.Subjects()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feature.Build(pair.DS1, subjects, pair.DS2, feature.DefaultOptions())
	}
}

// BenchmarkLinkBatchOp replays the op of the end-to-end benchmark's
// link_batch workload (bench/w_link.go) — PARIS, core.New with 8
// partitions, Engine.Run against a perfect oracle until convergence — over
// its first four data sets, with data generation outside the timer. It is
// the harness PERF.md's profiles come from:
//
//	go test -run '^$' -bench LinkBatchOp -benchtime 30x -cpuprofile cpu.prof .
func BenchmarkLinkBatchOp(b *testing.B) {
	var pairs []*datagen.Pair
	for s := int64(1000); s < 1004; s++ {
		pairs = append(pairs, datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, s)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair := pairs[i%len(pairs)]
		scored := paris.Link(pair.DS1, pair.DS2, paris.DefaultConfig())
		cfg := core.Defaults()
		cfg.Partitions = 8
		cfg.Workers = runtime.GOMAXPROCS(0)
		cfg.Seed = benchSeed + int64(i%len(pairs))
		engine := core.New(pair.DS1, pair.DS2, cfg)
		initial := make([]linkset.Link, len(scored))
		for j, s := range scored {
			initial[j] = s.Link
		}
		engine.SetInitialLinks(initial)
		oracle := feedback.NewOracle(pair.Truth, 0, rand.New(rand.NewSource(cfg.Seed)))
		engine.Run(core.SerialJudge(oracle.JudgeFunc()), nil)
	}
}

// BenchmarkSparqlColdOp replays the op of the end-to-end benchmark's
// sparql_cold workload (bench/w_sparql.go) in process: DS1 at scale 4
// behind endpoint.NewHandler — no cache, no admission — and, per op, the
// five templates about one seeded person: star, join + ORDER BY + LIMIT,
// regex, optional, group. The third twin of BenchmarkLinkBatchOp and
// BenchmarkFeedbackOp, and the harness PERF.md's PR 16 profiles come from:
//
//	go test -run '^$' -bench SparqlColdOp -benchtime 5000x -cpuprofile cpu.prof -memprofile mem.prof .
func BenchmarkSparqlColdOp(b *testing.B) {
	const dbo = "http://dbpedia.sim/ontology/"
	ds1 := datagen.GeneratePair(datagen.DBpediaNYTimes(4, 1)).DS1
	dict := ds1.Dict()
	var sessions [][]string
	for _, id := range ds1.Subjects() {
		s, team, pos := dict.Term(id).String(), firstObject(ds1, id, dbo+"team"), firstObject(ds1, id, dbo+"position")
		if team == "" || pos == "" || firstObject(ds1, id, rdf.RDFSLabel) == "" {
			continue
		}
		sessions = append(sessions, []string{
			fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", s),
			fmt.Sprintf("SELECT ?o ?l WHERE { %s <%steam> ?t . ?o <%steam> ?t . ?o <%s> ?l } ORDER BY ?l ?o LIMIT 10", s, dbo, dbo, rdf.RDFSLabel),
			fmt.Sprintf("SELECT ?s ?l WHERE { ?s <%steam> %s . ?s <%s> ?l . FILTER regex(?l, \"^[A-M]\") }", dbo, team, rdf.RDFSLabel),
			fmt.Sprintf("SELECT ?o ?b WHERE { ?o <%steam> %s . ?o <%sposition> %s . OPTIONAL { ?o <%sbirthDate> ?b } }", dbo, team, dbo, pos, dbo),
			fmt.Sprintf("SELECT ?pos (COUNT(?o) AS ?n) WHERE { ?o <%steam> %s . ?o <%sposition> ?pos } GROUP BY ?pos", dbo, team, dbo),
		})
	}
	serveSessions(b, endpoint.NewHandler(ds1), sessions)
}

// BenchmarkFedSameasOp replays the op of the end-to-end benchmark's
// fed_sameas workload (bench/w_fed.go) in process: the DBpedia–NYTimes pair
// at scale 4 federated with truth ∪ decoy links under the default
// resilience policy, served uncached through fed.CachedEndpointQueryFunc,
// and, per op, the four templates about one linked person: xjoin, const,
// ask, agg. The harness PERF.md's PR 17 profiles come from; not gated:
//
//	go test -run '^$' -bench FedSameasOp -benchtime 5000x -cpuprofile cpu.prof -memprofile mem.prof .
func BenchmarkFedSameasOp(b *testing.B) {
	const dbo, nyt = "http://dbpedia.sim/ontology/", "http://nytimes.sim/ontology/"
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(4, 1))
	ds1, dict := pair.DS1, pair.Dict
	links := linkset.FromLinks(pair.Truth.Links())
	s1, s2 := ds1.Subjects(), pair.DS2.Subjects()
	rng := rand.New(rand.NewSource(benchSeed))
	for i := pair.Truth.Len() / 2; i > 0; i-- {
		links.Add(linkset.Link{Left: s1[rng.Intn(len(s1))], Right: s2[rng.Intn(len(s2))]})
	}
	linked := map[rdf.TermID]bool{}
	for _, l := range pair.Truth.Links() {
		linked[l.Left] = true
	}
	var sessions [][]string
	for _, id := range s1 {
		s, team := dict.Term(id).String(), firstObject(ds1, id, dbo+"team")
		if !linked[id] || team == "" || firstObject(ds1, id, dbo+"position") == "" || firstObject(ds1, id, rdf.RDFSLabel) == "" {
			continue
		}
		sessions = append(sessions, []string{
			fmt.Sprintf("SELECT ?s ?l ?pl WHERE { ?s <%steam> %s . ?s <%s> ?l . ?s <%sprefLabel> ?pl }", dbo, team, rdf.RDFSLabel, nyt),
			fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", s),
			fmt.Sprintf("ASK { %s <%sprefLabel> ?x }", s, nyt),
			fmt.Sprintf("SELECT ?pos (COUNT(?s) AS ?n) WHERE { ?s <%steam> %s . ?s <%sposition> ?pos } GROUP BY ?pos", dbo, team, nyt),
		})
	}
	f := fed.New(dict, ds1, pair.DS2)
	f.SetLinks(links)
	f.SetResilience(fed.DefaultResilience())
	serveSessions(b, endpoint.NewQueryHandler(fed.CachedEndpointQueryFunc(f, nil), nil), sessions)
}

// firstObject is the first object of (s, pred) in st in SPARQL surface
// syntax, "" when there is none.
func firstObject(st *store.Store, s rdf.TermID, pred string) string {
	dict := st.Dict()
	p, ok := dict.Lookup(rdf.NewIRI(pred))
	if !ok {
		return ""
	}
	for _, t := range st.Match(s, p, rdf.NoTerm) {
		return dict.Term(t.O).String()
	}
	return ""
}

// serveSessions is the timed loop of the *Op benchmarks over HTTP
// workloads: one op posts every query of one session, sessions taken in a
// seeded shuffle, to /sparql through an httptest recorder.
func serveSessions(b *testing.B, h http.Handler, sessions [][]string) {
	if len(sessions) == 0 {
		b.Fatal("no subject with label, team and position")
	}
	rng := rand.New(rand.NewSource(benchSeed))
	rng.Shuffle(len(sessions), func(i, j int) { sessions[i], sessions[j] = sessions[j], sessions[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, query := range sessions[i%len(sessions)] {
			req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader("query="+url.QueryEscape(query)))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", query, rec.Code, rec.Body.String())
			}
		}
	}
}

// feedbackWorld is the feedback_loop workload's stack (bench/w_feedback.go)
// assembled in process, the way `sparqld -feedback -feedback-batch 16`
// assembles it: a four-partition engine over the DBpedia–NYTimes pair at
// scale 0.5 seeded with the truth links plus one decoy per two (|C| ≈ 2.4 k),
// its candidates published as the federation's sameAs links, a feedback
// stream behind POST /feedback and a cached federated /sparql.
type feedbackWorld struct {
	pair    *datagen.Pair
	engine  *core.Engine
	stream  *core.FeedbackStream
	fed     *fed.Federation
	handler *endpoint.Handler
	oracle  *feedback.Oracle
	rng     *rand.Rand
	added   int
}

func newFeedbackWorld(seed int64) *feedbackWorld {
	w := &feedbackWorld{pair: datagen.GeneratePair(datagen.DBpediaNYTimes(0.5, 1)), rng: rand.New(rand.NewSource(seed))}
	pair := w.pair
	initial := pair.Truth.Links()
	s1, s2 := pair.DS1.Subjects(), pair.DS2.Subjects()
	for i := len(initial) / 2; i > 0; i-- {
		initial = append(initial, linkset.Link{Left: s1[w.rng.Intn(len(s1))], Right: s2[w.rng.Intn(len(s2))]})
	}
	cfg := core.Defaults()
	cfg.Seed = seed
	cfg.Partitions = 4
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.EpisodeSize = 16
	cfg.MaxEpisodes = 1 << 20
	w.engine = core.New(pair.DS1, pair.DS2, cfg)
	w.engine.SetInitialLinks(initial)
	w.fed = fed.New(pair.Dict, pair.DS1, pair.DS2)
	w.fed.SetResilience(fed.DefaultResilience())
	w.republish(core.EpisodeStats{})
	w.stream = w.engine.FeedbackStream(core.StreamConfig{BatchSize: 16})
	cache := endpoint.NewQueryCache(endpoint.DefaultCacheConfig(), w.fed.DataGeneration)
	w.handler = endpoint.NewQueryHandler(fed.CachedEndpointQueryFunc(w.fed, cache), nil)
	w.handler.SetFeedbackFunc(endpoint.EngineFeedbackFunc(w.engine, w.stream, pair.Dict, w.republish))
	w.oracle = feedback.NewOracle(pair.Truth, 0.10, rand.New(rand.NewSource(seed+1)))
	return w
}

// republish is sparqld's onApplied: the refreshed candidates become the
// federation's links.
func (w *feedbackWorld) republish(core.EpisodeStats) { w.fed.SetLinks(w.engine.Candidates()) }

// judgements draws 16 links from the partitions that still take feedback
// (all of them once every partition has converged) and has the oracle
// judge them.
func (w *feedbackWorld) judgements() []core.Feedback {
	var cands []linkset.Link
	for pi := 0; pi < w.engine.Partitions(); pi++ {
		if !w.engine.PartitionConverged(pi) {
			cands = append(cands, w.engine.PartitionCandidates(pi)...)
		}
	}
	if len(cands) == 0 {
		cands = w.engine.Candidates().Links()
	}
	items := make([]core.Feedback, 16)
	for j := range items {
		l := cands[w.rng.Intn(len(cands))]
		items[j] = core.Feedback{Link: l, Approved: w.oracle.Judge(l)}
	}
	return items
}

func (w *feedbackWorld) post(b *testing.B, path, contentType, body string) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	w.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
}

// op is one feedback_loop op: a five-triple newcomer joins DS1, 16
// judgements go through the handler with flush (store sync, feature delta,
// episode, republish), and one federated re-read follows the judged link.
func (w *feedbackWorld) op(b *testing.B) {
	subj := rdf.NewIRI(fmt.Sprintf("http://bench.invalid/new/e%d", w.added))
	w.added++
	label := rdf.NewString(fmt.Sprintf("newcomer %d", w.added))
	for _, t := range []rdf.Triple{
		{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("http://dbpedia.sim/class/Person")},
		{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(rdf.OWLThing)},
		{S: subj, P: rdf.NewIRI("http://dbpedia.sim/ontology/label"), O: label},
		{S: subj, P: rdf.NewIRI(rdf.RDFSLabel), O: label},
		{S: subj, P: rdf.NewIRI("http://dbpedia.sim/ontology/position"), O: rdf.NewString("PG")},
	} {
		w.pair.DS1.Add(t)
	}
	dict := w.pair.Dict
	items := w.judgements()
	req := endpoint.FeedbackRequest{Flush: true}
	for _, it := range items {
		req.Items = append(req.Items, endpoint.FeedbackItem{
			Left: dict.Term(it.Link.Left).Value, Right: dict.Term(it.Link.Right).Value, Approved: it.Approved,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	w.post(b, "/feedback", "application/json", string(body))
	query := fmt.Sprintf("SELECT ?pl WHERE { %s <http://nytimes.sim/ontology/prefLabel> ?pl }", dict.Term(items[0].Link.Left))
	w.post(b, "/sparql", "application/x-www-form-urlencoded", "query="+url.QueryEscape(query))
}

// feedbackOpsPerWorld is how many ops one world serves before the benchmarks
// below rebuild it (untimed), as the workload rebuilds its stack every
// round: the candidate set drifts and partitions converge as ops pile up.
const feedbackOpsPerWorld = 100

// BenchmarkFeedbackOp is the feedback_loop workload's op in process — the
// twin of BenchmarkLinkBatchOp, there so `-cpuprofile` works on the op
// (PERF.md's PR 15 profiles). Not gated: the workload itself is the gate.
func BenchmarkFeedbackOp(b *testing.B) {
	var w *feedbackWorld
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%feedbackOpsPerWorld == 0 {
			b.StopTimer()
			w = newFeedbackWorld(benchSeed + int64(i))
			b.StartTimer()
		}
		w.op(b)
	}
}

// BenchmarkRepublish is the judgement-to-visible-link step alone: after
// one applied 16-judgement batch (untimed), merge the partitions' views
// into the candidate set and publish it as the federation's links.
func BenchmarkRepublish(b *testing.B) {
	var w *feedbackWorld
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%feedbackOpsPerWorld == 0 {
			w = newFeedbackWorld(benchSeed + int64(i))
		}
		w.stream.Submit(w.judgements()...)
		b.StartTimer()
		w.fed.SetLinks(w.engine.Candidates())
	}
}

// BenchmarkSpaceRebuild is the from-scratch baseline of the incremental-
// maintenance pair: the cost of absorbing one subject change by rebuilding
// the whole feature space, the only option before delta maintenance.
func BenchmarkSpaceRebuild(b *testing.B) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, benchSeed))
	subjects := pair.DS1.Subjects()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feature.Build(pair.DS1, subjects, pair.DS2, feature.DefaultOptions())
	}
}

// BenchmarkSpaceUpsert measures absorbing one subject change through the
// delta path: rescore only the touched pairs and splice the per-feature
// indexes in place. Its ratio to BenchmarkSpaceRebuild is the streaming
// headline (target ≥10× on this corpus).
func BenchmarkSpaceUpsert(b *testing.B) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, benchSeed))
	subjects := pair.DS1.Subjects()
	sp := feature.Build(pair.DS1, subjects, pair.DS2, feature.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.UpsertSubject(pair.DS1, subjects[i%len(subjects)])
	}
}

func BenchmarkFeatureExplore(b *testing.B) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, benchSeed))
	sp := feature.Build(pair.DS1, pair.DS1.Subjects(), pair.DS2, feature.DefaultOptions())
	feats := sp.Features()
	rng := rand.New(rand.NewSource(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := feats[i%len(feats)]
		v := rng.Float64()
		sp.ExploreN(f, v, 0.05, 400)
	}
}

// engineEpisodesPerOp is how many episodes one BenchmarkEngineEpisode op
// runs. The domain run takes about 30 episodes to converge from PARIS's
// links, so none of the first ten is a converged no-op.
const engineEpisodesPerOp = 10

// BenchmarkEngineEpisode measures the paper's episode loop (§4, Fig 4's
// specific-domain setting). One op is engineEpisodesPerOp RunEpisode calls
// on a fresh engine: core.New over the NBA pair, seeded with PARIS's links,
// judged against the truth. Each op builds that engine outside the timer,
// so every op starts from the same state and does the same work; reusing
// one engine would let it converge and time near no-op episodes instead.
func BenchmarkEngineEpisode(b *testing.B) {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, benchSeed))
	scored := paris.Link(pair.DS1, pair.DS2, paris.DefaultConfig())
	links := make([]linkset.Link, len(scored))
	for i, s := range scored {
		links[i] = s.Link
	}
	cfg := domainCfg()
	cfg.MaxEpisodes = 1 << 30 // never converge by cap within the bench
	judge := func(l linkset.Link) bool { return pair.Truth.Contains(l) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engine := core.New(pair.DS1, pair.DS2, cfg)
		engine.SetInitialLinks(links)
		b.StartTimer()
		for j := 0; j < engineEpisodesPerOp; j++ {
			engine.RunEpisode(judge)
		}
	}
}

// --- helpers ---

func mustExperiment(b *testing.B, id string) error {
	b.Helper()
	e, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	return e.Run(io.Discard, experiment.Options{Seed: benchSeed})
}

func avgNegShare(res *experiment.Result) float64 {
	if len(res.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range res.Points {
		sum += p.NegShare
	}
	return 100 * sum / float64(len(res.Points))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Design-choice ablations (see DESIGN.md) ---

// BenchmarkAblationFeaturePrior measures the cross-state feature-
// distinctiveness prior: without it the engine is the paper's literal
// per-state learner and must rediscover indistinct features at every state.
func BenchmarkAblationFeaturePrior(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"with", false}, {"without", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := batchCfg()
			if tc.disable {
				cfg = cfg.DisableFeaturePrior()
			}
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				res = experiment.Run(experiment.RunConfig{
					Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: cfg, Seed: benchSeed,
				})
			}
			b.ReportMetric(res.Final.FMeasure, "final-F")
			b.ReportMetric(float64(len(res.Points)), "episodes")
		})
	}
}

// BenchmarkAblationMaxExplored sweeps the per-action exploration bound.
func BenchmarkAblationMaxExplored(b *testing.B) {
	for _, tc := range []struct {
		name string
		cap  int
	}{{"100", 100}, {"400", 400}, {"unlimited", -1}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := batchCfg()
			cfg.MaxExplored = tc.cap
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				res = experiment.Run(experiment.RunConfig{
					Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: cfg, Seed: benchSeed,
				})
			}
			b.ReportMetric(res.Final.FMeasure, "final-F")
			b.ReportMetric(res.Final.Recall, "final-R")
			b.ReportMetric(float64(len(res.Points)), "episodes")
		})
	}
}

// BenchmarkAblationEpsilon sweeps the exploration rate of the policy.
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, tc := range []struct {
		name string
		eps  float64
	}{{"0.05", 0.05}, {"0.10", 0.10}, {"0.20", 0.20}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := batchCfg()
			cfg.Epsilon = tc.eps
			var res *experiment.Result
			for i := 0; i < b.N; i++ {
				res = experiment.Run(experiment.RunConfig{
					Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: cfg, Seed: benchSeed,
				})
			}
			b.ReportMetric(res.Final.FMeasure, "final-F")
			b.ReportMetric(float64(len(res.Points)), "episodes")
		})
	}
}

// BenchmarkFedJoinReorder measures the federated optimizer: a query written
// worst-pattern-first, with and without selectivity reordering.
func BenchmarkFedJoinReorder(b *testing.B) {
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(0.5, benchSeed))
	query := `SELECT ?p ?name WHERE {
		?p <http://dbpedia.sim/ontology/label> ?anything .
		?p <http://nytimes.sim/ontology/prefLabel> ?name .
		?p <http://dbpedia.sim/ontology/position> "PG" .
	}`
	for _, tc := range []struct {
		name    string
		reorder bool
	}{{"reordered", true}, {"naive", false}} {
		b.Run(tc.name, func(b *testing.B) {
			federation := fed.New(pair.Dict, pair.DS1, pair.DS2)
			federation.SetLinks(pair.Truth)
			if !tc.reorder {
				federation.DisableReorder()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := federation.ExecuteContext(context.Background(), query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFedQueryEndToEnd is the federated hot path end to end: a
// cross-data-set join (bound joins plus sameAs rewriting) on the
// federation sparqld assembles — serial, reordered, with the default
// resilience policy installed — so it profiles the served path.
func BenchmarkFedQueryEndToEnd(b *testing.B) {
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(0.5, benchSeed))
	federation := fed.New(pair.Dict, pair.DS1, pair.DS2)
	federation.SetLinks(pair.Truth)
	federation.SetResilience(fed.DefaultResilience())
	query := `SELECT ?p ?name WHERE {
		?p <http://dbpedia.sim/ontology/position> "PG" .
		?p <http://nytimes.sim/ontology/prefLabel> ?name .
	}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := federation.ExecuteContext(context.Background(), query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFedPreparedHit is one federated query served the way sparqld
// serves it — through fed.CachedEndpointQueryFunc with a warm prepared
// cache and the result cache off — so that what a prepared-cache hit still
// costs is a number: normalise, look up, evaluate the cached layout.
func BenchmarkFedPreparedHit(b *testing.B) {
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(0.5, benchSeed))
	federation := fed.New(pair.Dict, pair.DS1, pair.DS2)
	federation.SetLinks(pair.Truth)
	federation.SetResilience(fed.DefaultResilience())
	cache := endpoint.NewQueryCache(endpoint.CacheConfig{PreparedSize: 16}, federation.DataGeneration)
	serve := fed.CachedEndpointQueryFunc(federation, cache)
	query := `SELECT ?p ?name WHERE {
		?p <http://dbpedia.sim/ontology/position> "PG" .
		?p <http://nytimes.sim/ontology/prefLabel> ?name .
		FILTER REGEX(?name, "^[A-M]")
	}`
	ctx := context.Background()
	if _, err := serve(ctx, query); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve(ctx, query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPolicy runs the paper's ε-greedy policy to convergence
// and reports the quality and episode count it reaches.
func BenchmarkAblationPolicy(b *testing.B) {
	var res *experiment.Result
	for i := 0; i < b.N; i++ {
		res = experiment.Run(experiment.RunConfig{
			Spec: datagen.DBpediaNYTimes(1, benchSeed), Core: batchCfg(), Seed: benchSeed,
		})
	}
	b.ReportMetric(res.Final.FMeasure, "final-F")
	b.ReportMetric(res.Final.Recall, "final-R")
	b.ReportMetric(float64(len(res.Points)), "episodes")
}

package experiment

import (
	"fmt"
	"io"
	"slices"
	"time"

	"alex/internal/core"
	"alex/internal/datagen"
	"alex/internal/feature"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/plot"
	"alex/internal/store"
)

// Options tunes an experiment invocation.
type Options struct {
	// Scale multiplies the generated data-set sizes; 1 is the default
	// laptop-scale setup described in DESIGN.md.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Obs, when non-nil, collects engine metrics and per-episode traces
	// across every run the experiment performs (cmd/alex -trace).
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Experiment reproduces one of the paper's tables or figures.
type Experiment struct {
	ID    string
	Title string
	// Run prints the experiment's report to w and returns the charts it
	// drew from the same runs, keyed by SVG file name (none for table1,
	// fig5, timing and summary).
	Run func(w io.Writer, opt Options) map[string]*plot.Chart
}

// batchCore is the batch-mode configuration (§7.2.1): the paper's episode
// size of 1000 maps to 100 at our ~1/10 data scale, preserving the
// feedback-to-truth ratio per episode.
func batchCore(seed int64) core.Config {
	c := core.Defaults()
	c.EpisodeSize = 100
	c.Partitions = 8
	c.Seed = seed
	return c
}

// domainCore is the specific-domain configuration (§7.2.2): episode size 10
// as in the paper.
func domainCore(seed int64) core.Config {
	c := core.Defaults()
	c.EpisodeSize = 10
	c.Partitions = 2
	c.MaxEpisodes = 60
	c.Seed = seed
	return c
}

// run links spec's pair under cc with perfect feedback.
func (o Options) run(spec func(float64, int64) datagen.PairSpec, cc core.Config) *Result {
	return Run(RunConfig{Spec: spec(o.Scale, o.Seed), Core: cc, Seed: o.Seed, Obs: o.Obs})
}

// qualityRow is one data-set pair's quality-curve figure. Row i is the
// figure of datagen.Scenarios[i].
type qualityRow struct {
	id    string
	title string
	// chart is the title drawn on the figure.
	chart string
	// batch selects batchCore over domainCore.
	batch bool
}

var qualityRows = []qualityRow{
	{"fig2a", "Fig 2(a): DBpedia - NYTimes (batch)", "Fig 2(a): DBpedia - NYTimes", true},
	{"fig2b", "Fig 2(b): DBpedia - Drugbank (batch)", "Fig 2(b): DBpedia - Drugbank", true},
	{"fig2c", "Fig 2(c): DBpedia - Lexvo (batch)", "Fig 2(c): DBpedia - Lexvo", true},
	{"fig3a", "Fig 3(a): OpenCyc - NYTimes (batch)", "Fig 3(a): OpenCyc - NYTimes", true},
	{"fig3b", "Fig 3(b): OpenCyc - Drugbank (batch)", "Fig 3(b): OpenCyc - Drugbank", true},
	{"fig3c", "Fig 3(c): OpenCyc - Lexvo (batch)", "Fig 3(c): OpenCyc - Lexvo", true},
	{"fig4a", "Fig 4(a): DBpedia - SW Dogfood (specific domain)", "Fig 4(a): DBpedia - SW Dogfood", false},
	{"fig4b", "Fig 4(b): OpenCyc - SW Dogfood (specific domain)", "Fig 4(b): OpenCyc - SW Dogfood", false},
	{"fig4c", "Fig 4(c): DBpedia (NBA) - NYTimes (specific domain)", "Fig 4(c): DBpedia (NBA) - NYTimes", false},
	{"fig4d", "Fig 4(d): OpenCyc (NBA) - NYTimes (specific domain)", "Fig 4(d): OpenCyc (NBA) - NYTimes", false},
	{"fig8", "Fig 8 (App. B): DBpedia - OpenCyc stress test", "Fig 8: DBpedia - OpenCyc", true},
}

func (q qualityRow) core(seed int64) core.Config {
	if q.batch {
		return batchCore(seed)
	}
	return domainCore(seed)
}

// quality returns the quality-curve experiment of the row with the given
// id.
func quality(id string) Experiment {
	i := slices.IndexFunc(qualityRows, func(q qualityRow) bool { return q.id == id })
	q, spec := qualityRows[i], datagen.Scenarios[i].Spec
	return Experiment{
		ID:    q.id,
		Title: q.title,
		Run: func(w io.Writer, opt Options) map[string]*plot.Chart {
			opt = opt.withDefaults()
			res := opt.run(spec, q.core(opt.Seed))
			fmt.Fprintf(w, "== %s ==\n", q.title)
			res.PrintCurve(w)
			return map[string]*plot.Chart{q.id + ".svg": res.QualityChart(q.chart)}
		},
	}
}

// Experiments lists every reproduced table and figure, in paper order.
var Experiments = []Experiment{
	{ID: "table1", Title: "Table 1: data sets used in the experiments", Run: runTable1},
	quality("fig2a"),
	quality("fig2b"),
	quality("fig2c"),
	quality("fig3a"),
	quality("fig3b"),
	quality("fig3c"),
	quality("fig4a"),
	quality("fig4b"),
	quality("fig4c"),
	quality("fig4d"),
	{ID: "fig5", Title: "Fig 5: filtering to reduce the search space", Run: runFig5},
	{ID: "fig6", Title: "Fig 6: effect of the blacklist", Run: runFig6},
	{ID: "fig7", Title: "Fig 7: effect of rollback", Run: runFig7},
	quality("fig8"),
	{ID: "fig9", Title: "Fig 9 (App. C): effect of 10% incorrect feedback", Run: runFig9},
	{ID: "fig10", Title: "Fig 10 (App. D): sensitivity to step size", Run: runFig10},
	{ID: "fig11", Title: "Fig 11 (App. D): sensitivity to episode size", Run: runFig11},
	{ID: "timing", Title: "Sec 7.3: execution time", Run: runTiming},
	{ID: "summary", Title: "Summary: every pair's start/end quality on one screen", Run: runSummary},
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runSummary runs every data-set pair and prints a one-line-per-pair
// reproduction dashboard.
func runSummary(w io.Writer, opt Options) map[string]*plot.Chart {
	opt = opt.withDefaults()
	fmt.Fprintf(w, "== Summary: all pairs, start -> end ==\n")
	fmt.Fprintf(w, "%-22s %7s | %-17s | %-17s | %8s %5s %9s\n",
		"pair", "truth", "start P/R", "final P/R", "episodes", "new", "F-gain")
	for i, sc := range datagen.Scenarios {
		res := opt.run(sc.Spec, qualityRows[i].core(opt.Seed))
		fmt.Fprintf(w, "%-22s %7d | P=%.2f R=%.2f    | P=%.2f R=%.2f    | %8d %5d %+9.2f\n",
			sc.ID, res.TruthSize,
			res.Initial.Precision, res.Initial.Recall,
			res.Final.Precision, res.Final.Recall,
			len(res.Points), res.NewCorrect,
			res.Final.FMeasure-res.Initial.FMeasure)
	}
	return nil
}

// runTable1 generates every data set used across the scenarios and prints a
// Table 1 analog: name, field and triple count.
func runTable1(w io.Writer, opt Options) map[string]*plot.Chart {
	opt = opt.withDefaults()
	type row struct {
		name, field string
		stats       store.Stats
	}
	var rows []row
	add := func(s *store.Store, field string) {
		rows = append(rows, row{s.Name(), field, s.Stats()})
	}
	dbOC := datagen.GeneratePair(datagen.DBpediaOpenCyc(opt.Scale, opt.Seed))
	add(dbOC.DS1, "Multi-domain")
	add(dbOC.DS2, "Multi-domain")
	nyt := datagen.GeneratePair(datagen.DBpediaNYTimes(opt.Scale, opt.Seed))
	add(nyt.DS2, "Media")
	drug := datagen.GeneratePair(datagen.DBpediaDrugbank(opt.Scale, opt.Seed))
	add(drug.DS2, "Life Sciences")
	lex := datagen.GeneratePair(datagen.DBpediaLexvo(opt.Scale, opt.Seed))
	add(lex.DS2, "Linguistics")
	dog := datagen.GeneratePair(datagen.DBpediaDogfood(opt.Scale, opt.Seed))
	add(dog.DS2, "Publications")
	nba := datagen.GeneratePair(datagen.NBADBpediaNYTimes(opt.Scale, opt.Seed))
	add(nba.DS1, "Basketball Players")
	nbaOC := datagen.GeneratePair(datagen.NBAOpenCycNYTimes(opt.Scale, opt.Seed))
	add(nbaOC.DS1, "Basketball Players")

	fmt.Fprintf(w, "== Table 1: generated data sets (scaled stand-ins; see DESIGN.md) ==\n")
	fmt.Fprintf(w, "%-14s %-20s %10s %10s %10s\n", "Data Set", "Field", "Triples", "Subjects", "Preds")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-20s %10d %10d %10d\n",
			r.name, r.field, r.stats.Triples, r.stats.Subjects, r.stats.Predicates)
	}
	return nil
}

// runFig5 reports the search-space filtering numbers: the raw cross-product
// size of partition 1 of DBpedia × NYTimes, the θ-filtered space, and the
// ground-truth share (Figs 5(a), 5(b)).
func runFig5(w io.Writer, opt Options) map[string]*plot.Chart {
	opt = opt.withDefaults()
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(opt.Scale, opt.Seed))
	parts := feature.Partition(pair.DS1.Subjects(), 8)
	sp := feature.Build(pair.DS1, parts[0], pair.DS2, feature.DefaultOptions())

	inPartition := map[linkset.Link]bool{}
	truthInPartition := 0
	truthInSpace := 0
	partSet := map[uint32]bool{}
	for _, s := range parts[0] {
		partSet[uint32(s)] = true
	}
	for _, l := range pair.Truth.Links() {
		if !partSet[uint32(l.Left)] {
			continue
		}
		inPartition[l] = true
		truthInPartition++
		if _, ok := sp.FeatureSet(l); ok {
			truthInSpace++
		}
	}
	total, filtered := sp.TotalPairs(), sp.Len()
	fmt.Fprintf(w, "== Fig 5: search-space filtering (partition 1 of DBpedia x NYTimes) ==\n")
	fmt.Fprintf(w, "(a) total possible links:   %8d\n", total)
	fmt.Fprintf(w, "    filtered space (θ=0.3): %8d  (%.1f%% of total; paper: ~5%%)\n",
		filtered, 100*float64(filtered)/float64(total))
	fmt.Fprintf(w, "(b) ground truth in partition: %5d  (%.2f%% of filtered space; paper: ~0.2%%)\n",
		truthInPartition, 100*float64(truthInPartition)/float64(filtered))
	fmt.Fprintf(w, "    ground truth retained by filter: %d/%d\n", truthInSpace, truthInPartition)
	return nil
}

// runFig6 compares ALEX with and without the blacklist: F-measure curves
// and the per-episode share of negative feedback.
func runFig6(w io.Writer, opt Options) map[string]*plot.Chart {
	opt = opt.withDefaults()
	withBL := opt.run(datagen.DBpediaNYTimes, batchCore(opt.Seed))
	withoutBL := opt.run(datagen.DBpediaNYTimes, batchCore(opt.Seed).DisableBlacklist())
	fmt.Fprintf(w, "== Fig 6: effect of the blacklist (DBpedia - NYTimes) ==\n")
	fmt.Fprintf(w, "%-8s  %-22s  %-22s\n", "episode", "with blacklist", "without blacklist")
	fmt.Fprintf(w, "%-8s  %-10s %-10s  %-10s %-10s\n", "", "F", "neg%", "F", "neg%")
	n := maxLen(len(withBL.Points), len(withoutBL.Points))
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%-8d  %-10s %-10s  %-10s %-10s\n", i+1,
			fOrDash(withBL.Points, i, func(p Point) float64 { return p.Quality.FMeasure }),
			fOrDash(withBL.Points, i, func(p Point) float64 { return p.NegShare * 100 }),
			fOrDash(withoutBL.Points, i, func(p Point) float64 { return p.Quality.FMeasure }),
			fOrDash(withoutBL.Points, i, func(p Point) float64 { return p.NegShare * 100 }))
	}
	// The paper's Fig 6(b) compares the negative-feedback share over the
	// first ten episodes; averaging full runs of different lengths would
	// bias toward whichever run has the longer low-negativity tail.
	fmt.Fprintf(w, "avg negative feedback (first 10 episodes): with=%.1f%% without=%.1f%% (blacklist should be lower)\n",
		avgNeg(firstN(withBL.Points, 10))*100, avgNeg(firstN(withoutBL.Points, 10))*100)
	fmt.Fprintf(w, "total negative feedback to convergence: with=%d without=%d\n",
		totalNeg(withBL), totalNeg(withoutBL))
	return map[string]*plot.Chart{
		"fig6a.svg": compareChart("Fig 6(a): F-measure, blacklist",
			"with blacklist", fSeries(withBL), "without blacklist", fSeries(withoutBL)),
		"fig6b.svg": compareChart("Fig 6(b): negative feedback share",
			"with blacklist", negSeries(withBL), "without blacklist", negSeries(withoutBL)),
	}
}

func firstN(pts []Point, n int) []Point {
	if len(pts) > n {
		return pts[:n]
	}
	return pts
}

// totalNeg estimates the total count of negative feedback items a user had
// to provide over the whole run — the cost the blacklist saves.
func totalNeg(r *Result) int {
	total := 0
	for _, p := range r.Points {
		total += int(p.NegShare*float64(r.Config.Core.EpisodeSize) + 0.5)
	}
	return total
}

// runFig7 contrasts ALEX with rollback (the default, Fig 2(a)) against ALEX
// without rollback, including per-partition convergence analysis.
func runFig7(w io.Writer, opt Options) map[string]*plot.Chart {
	opt = opt.withDefaults()
	withRB := opt.run(datagen.DBpediaNYTimes, batchCore(opt.Seed))
	noRB := batchCore(opt.Seed).DisableRollback()
	withoutRB := opt.run(datagen.DBpediaNYTimes, noRB)
	fmt.Fprintf(w, "== Fig 7: effect of rollback (DBpedia - NYTimes) ==\n")
	fmt.Fprintf(w, "(a) without rollback (cap %d episodes):\n", noRB.MaxEpisodes)
	withoutRB.PrintCurve(w)
	fmt.Fprintf(w, "\nwith rollback (reference, = Fig 2(a)):\n")
	fmt.Fprintf(w, "final: P=%.3f R=%.3f F=%.3f in %d episodes\n",
		withRB.Final.Precision, withRB.Final.Recall, withRB.Final.FMeasure, len(withRB.Points))
	fmt.Fprintf(w, "\nwithout-rollback final: P=%.3f R=%.3f F=%.3f in %d episodes\n",
		withoutRB.Final.Precision, withoutRB.Final.Recall, withoutRB.Final.FMeasure, len(withoutRB.Points))

	// (b)/(c): per-partition outcomes without rollback — the paper shows
	// that some partitions recover from bad exploration while others never
	// do. Print each partition, flagging the best and worst.
	fmt.Fprintf(w, "\n(b)/(c) per-partition outcomes without rollback:\n")
	best, worst := -1, -1
	for i, po := range withoutRB.Partitions {
		if best < 0 || po.Quality.FMeasure > withoutRB.Partitions[best].Quality.FMeasure {
			best = i
		}
		if worst < 0 || po.Quality.FMeasure < withoutRB.Partitions[worst].Quality.FMeasure {
			worst = i
		}
	}
	for i, po := range withoutRB.Partitions {
		marker := ""
		if i == best {
			marker = "  <- recovers best (cf. Fig 7(b))"
		}
		if i == worst {
			marker = "  <- cannot recover (cf. Fig 7(c))"
		}
		fmt.Fprintf(w, "partition %2d: P=%.3f R=%.3f F=%.3f episodes=%d converged=%v%s\n",
			po.Partition, po.Quality.Precision, po.Quality.Recall, po.Quality.FMeasure,
			po.Episodes, po.Converged, marker)
	}
	return map[string]*plot.Chart{"fig7a.svg": withoutRB.QualityChart("Fig 7(a): quality without rollback")}
}

// runFig9 evaluates ALEX with 10% incorrect feedback against the clean run.
func runFig9(w io.Writer, opt Options) map[string]*plot.Chart {
	opt = opt.withDefaults()
	clean := opt.run(datagen.DBpediaNYTimes, batchCore(opt.Seed))
	noisyCfg := batchCore(opt.Seed)
	// Under noisy feedback a single erroneous rejection must not destroy a
	// correct link forever; the noise-tolerant blacklist threshold keeps
	// recall robust (Config.BlacklistNegatives).
	noisyCfg.BlacklistNegatives = 3
	noisy := Run(RunConfig{Spec: datagen.DBpediaNYTimes(opt.Scale, opt.Seed), Core: noisyCfg, ErrorRate: 0.10, Seed: opt.Seed, Obs: opt.Obs})
	fmt.Fprintf(w, "== Fig 9: effect of 10%% incorrect feedback (DBpedia - NYTimes) ==\n")
	fmt.Fprintf(w, "(noisy run uses the noise-tolerant blacklist threshold of 3)\n")
	fmt.Fprintf(w, "%-8s  %-30s  %-30s\n", "episode", "correct feedback", "10% incorrect feedback")
	fmt.Fprintf(w, "%-8s  %-9s %-9s %-9s  %-9s %-9s %-9s\n", "", "P", "R", "F", "P", "R", "F")
	n := maxLen(len(clean.Points), len(noisy.Points))
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%-8d  %-9s %-9s %-9s  %-9s %-9s %-9s\n", i+1,
			fOrDash(clean.Points, i, func(p Point) float64 { return p.Quality.Precision }),
			fOrDash(clean.Points, i, func(p Point) float64 { return p.Quality.Recall }),
			fOrDash(clean.Points, i, func(p Point) float64 { return p.Quality.FMeasure }),
			fOrDash(noisy.Points, i, func(p Point) float64 { return p.Quality.Precision }),
			fOrDash(noisy.Points, i, func(p Point) float64 { return p.Quality.Recall }),
			fOrDash(noisy.Points, i, func(p Point) float64 { return p.Quality.FMeasure }))
	}
	fmt.Fprintf(w, "final: clean F=%.3f, 10%%-error F=%.3f (degradation should be small)\n",
		clean.Final.FMeasure, noisy.Final.FMeasure)
	return map[string]*plot.Chart{"fig9.svg": compareChart("Fig 9: F-measure under 10% incorrect feedback",
		"correct feedback", fSeries(clean), "10% incorrect", fSeries(noisy))}
}

// runFig10 sweeps the step size over {0.01, 0.05, 0.1}.
func runFig10(w io.Writer, opt Options) map[string]*plot.Chart {
	opt = opt.withDefaults()
	c := fChart("Fig 10: F-measure by step size")
	fmt.Fprintf(w, "== Fig 10: sensitivity to step size (DBpedia - NYTimes) ==\n")
	fmt.Fprintf(w, "%-10s %-9s %-9s %-9s %-10s %-10s %-9s\n",
		"step", "P", "R", "F", "episodes", "avgNeg%", "time(s)")
	for _, s := range []float64{0.01, 0.05, 0.10} {
		cc := batchCore(opt.Seed)
		cc.StepSize = s
		res := opt.run(datagen.DBpediaNYTimes, cc)
		fmt.Fprintf(w, "%-10.2f %-9.3f %-9.3f %-9.3f %-10d %-10.1f %-9.2f\n",
			s, res.Final.Precision, res.Final.Recall, res.Final.FMeasure,
			len(res.Points), avgNeg(res.Points)*100, res.Duration.Seconds())
		c.Series = append(c.Series, plot.Series{Name: fmt.Sprintf("step %.2f", s), Y: fSeries(res)})
	}
	return map[string]*plot.Chart{"fig10.svg": c}
}

// runFig11 sweeps the episode size over {50, 100, 150} (the paper's
// {500, 1000, 1500} scaled to our data sizes).
func runFig11(w io.Writer, opt Options) map[string]*plot.Chart {
	opt = opt.withDefaults()
	sizes := []int{50, 100, 150}
	c := fChart("Fig 11: F-measure by episode size")
	fmt.Fprintf(w, "== Fig 11: sensitivity to episode size (DBpedia - NYTimes) ==\n")
	fmt.Fprintf(w, "(paper sizes 500/1000/1500 scaled to data: %v)\n", sizes)
	fmt.Fprintf(w, "%-10s %-9s %-9s %-9s %-10s\n", "episode_sz", "P", "R", "F", "episodes")
	for _, es := range sizes {
		cc := batchCore(opt.Seed)
		cc.EpisodeSize = es
		res := opt.run(datagen.DBpediaNYTimes, cc)
		fmt.Fprintf(w, "%-10d %-9.3f %-9.3f %-9.3f %-10d\n",
			es, res.Final.Precision, res.Final.Recall, res.Final.FMeasure, len(res.Points))
		c.Series = append(c.Series, plot.Series{Name: fmt.Sprintf("size %d", es), Y: fSeries(res)})
	}
	return map[string]*plot.Chart{"fig11.svg": c}
}

// runTiming reports wall-clock per episode in batch vs specific-domain
// settings (§7.3).
func runTiming(w io.Writer, opt Options) map[string]*plot.Chart {
	opt = opt.withDefaults()
	batch := opt.run(datagen.DBpediaNYTimes, batchCore(opt.Seed))
	domain := opt.run(datagen.NBADBpediaNYTimes, domainCore(opt.Seed))
	fmt.Fprintf(w, "== Sec 7.3: execution time ==\n")
	print := func(label string, r *Result) {
		per := time.Duration(0)
		if n := len(r.Points); n > 0 {
			per = r.Duration / time.Duration(n)
		}
		fmt.Fprintf(w, "%-28s setup=%8.2fs run=%8.2fs episodes=%3d per-episode=%s\n",
			label, r.SetupDuration.Seconds(), r.Duration.Seconds(), len(r.Points), per)
	}
	print("batch (DBpedia-NYTimes):", batch)
	print("domain (NBA-NYTimes):", domain)
	fmt.Fprintf(w, "paper: ~7 min/episode batch, ~1.3 s/episode interactive — shape: batch >> domain\n")
	return nil
}

func maxLen(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fOrDash(pts []Point, i int, f func(Point) float64) string {
	if i >= len(pts) {
		return "-"
	}
	return fmt.Sprintf("%.3f", f(pts[i]))
}

func avgNeg(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.NegShare
	}
	return sum / float64(len(pts))
}

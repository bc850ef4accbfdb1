package alex_test

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"strings"
	"testing"

	"alex"
	"alex/internal/datagen"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Example reproduces the paper's motivating scenario end-to-end: a
// federated query whose answer depends on an owl:sameAs link, feedback on
// the answer, and the resulting candidate links.
func Example() {
	ws := alex.NewWorkspace()

	dbpedia := ws.NewDataset("dbpedia")
	dbpedia.Add(alex.Triple{
		S: alex.IRI("http://db/LeBron_James"),
		P: alex.IRI("http://db/award"),
		O: alex.String("NBA MVP 2013"),
	})

	nytimes := ws.NewDataset("nytimes")
	nytimes.Add(alex.Triple{
		S: alex.IRI("http://nyt/article1"),
		P: alex.IRI("http://nyt/about"),
		O: alex.IRI("http://nyt/lebron_per"),
	})

	sess := ws.NewSession(dbpedia, nytimes, alex.Options{Partitions: 1, Seed: 1})
	sess.SeedLinks([]alex.Link{{
		Left:  alex.IRI("http://db/LeBron_James"),
		Right: alex.IRI("http://nyt/lebron_per"),
	}})

	res, err := sess.Query(context.Background(), `SELECT ?article WHERE {
		?p <http://db/award> "NBA MVP 2013" .
		?article <http://nyt/about> ?p .
	}`)
	if err != nil {
		panic(err)
	}
	fmt.Printf("answers: %d (via %d link)\n", len(res.Answers), res.Answers[0].UsedLinks())

	sess.Approve(res.Answers[0])
	sess.EndEpisode()
	for _, l := range sess.Links() {
		fmt.Printf("%s owl:sameAs %s\n", l.Left.Value, l.Right.Value)
	}
	// Output:
	// answers: 1 (via 1 link)
	// http://db/LeBron_James owl:sameAs http://nyt/lebron_per
}

// ExampleWorkspace_LoadDataset shows loading N-Triples data from any
// io.Reader.
func ExampleWorkspace_LoadDataset() {
	ws := alex.NewWorkspace()
	ds, err := ws.LoadDataset("demo", strings.NewReader(
		`<http://x/s> <http://x/p> "hello" .`))
	if err != nil {
		panic(err)
	}
	fmt.Println(ds.Stats())
	// Output: demo: 1 triples, 1 subjects, 1 predicates
}

// ExampleSession_RunSimulated is the paper's §7.2.2 specific-domain
// setting over NBA players (Fig 4(c)): PARIS seeds the links, then small
// episodes of 10 judgements from a simulated user refine them, and the
// motivating query reaches more players across both data sets.
func ExampleSession_RunSimulated() {
	w := newNBAWorld(9)
	fmt.Println(w.dbpedia.Stats())
	fmt.Println(w.nytimes.Stats())

	sess := w.ws.NewSession(w.dbpedia, w.nytimes, alex.Options{
		Partitions:  2,
		EpisodeSize: 10, // the paper's specific-domain episode size
		Seed:        9,
	})
	fmt.Printf("PARIS seeded %d candidate links (truth has %d)\n\n", sess.SeedFromPARIS(), len(w.truth))

	episodes := sess.RunSimulated(w.judge, 60)
	correct, wrong := 0, 0
	for _, l := range sess.Links() {
		if w.judge(l) {
			correct++
		} else {
			wrong++
		}
	}
	fmt.Printf("converged after %d episodes: %d correct links, %d wrong (truth %d)\n\n",
		episodes, correct, wrong, len(w.truth))

	res, err := sess.Query(context.Background(), `SELECT DISTINCT ?player WHERE {
		?player <http://dbpedia.sim/ontology/position> "PG" .
		?player <http://nytimes.sim/ontology/prefLabel> ?nyname .
	}`)
	if err != nil {
		panic(err)
	}
	fmt.Printf("point guards reachable across both data sets: %d\n", len(res.Answers))
	for _, a := range res.Answers[:5] {
		fmt.Printf("  %s\n", local(a.Bindings["player"].Value))
	}
	fmt.Println("  ...")
	// Output:
	// DBpedia-NBA: 1704 triples, 213 subjects, 7 predicates
	// NYTimes: 1010 triples, 163 subjects, 6 predicates
	// PARIS seeded 50 candidate links (truth has 93)
	//
	// converged after 16 episodes: 83 correct links, 6 wrong (truth 93)
	//
	// point guards reachable across both data sets: 15
	//   Chris_Paul_6
	//   Jimmy_Butler_16
	//   Bradley_Beal_22
	//   Devin_Booker_28
	//   Alice_Smith_30
	//   ...
}

// ExampleSession_LearnedFeatures asks a session what it has learned: which
// attribute pairs identify equivalent entities, and in which similarity
// band (§4.2's distinctive and indistinct features, made inspectable). The
// learned state then survives a checkpoint.
func ExampleSession_LearnedFeatures() {
	w := newNBAWorld(23)
	opt := alex.Options{Partitions: 2, EpisodeSize: 20, Seed: 23}
	sess := w.ws.NewSession(w.dbpedia, w.nytimes, opt)
	fmt.Printf("PARIS seeded %d links; learning from simulated feedback...\n\n", sess.SeedFromPARIS())
	episodes := sess.RunSimulated(w.judge, 60)
	fmt.Printf("converged after %d episodes with %d candidate links\n\n", episodes, len(sess.Links()))

	fmt.Println("what ALEX learned about the features (mean reward per exploration band):")
	fmt.Printf("%-24s %-24s %-4s %-6s %s\n", "predicate 1", "predicate 2", "band", "mean", "n")
	for _, f := range sess.LearnedFeatures(3)[:12] {
		fmt.Printf("%-24s %-24s %-4.1f %+-6.2f %d\n", local(f.Pred1), local(f.Pred2), f.Band, f.Mean, f.Visits)
	}
	fmt.Println("...")
	fmt.Println()
	fmt.Println("positive means = distinctive evidence (explore there);")
	fmt.Println("negative means = indistinct bands ALEX learned to avoid (cf. the paper's owl:Thing example).")

	var buf bytes.Buffer
	if err := sess.SaveState(&buf); err != nil {
		panic(err)
	}
	restored := w.ws.NewSession(w.dbpedia, w.nytimes, opt)
	if err := restored.LoadState(&buf); err != nil {
		panic(err)
	}
	fmt.Printf("\nrestored session holds %d links (same as before: %v)\n",
		len(restored.Links()), len(restored.Links()) == len(sess.Links()))
	// Output:
	// PARIS seeded 52 links; learning from simulated feedback...
	//
	// converged after 18 episodes with 69 candidate links
	//
	// what ALEX learned about the features (mean reward per exploration band):
	// predicate 1              predicate 2              band mean   n
	// rdf-schema#label         prefLabel                1.0  +0.76  33
	// height                   height                   1.0  -0.58  19
	// birthDate                born                     1.0  -0.67  18
	// team                     associatedTeam           1.0  -0.88  16
	// 22-rdf-syntax-ns#type    22-rdf-syntax-ns#type    1.0  -1.00  20
	// birthDate                height                   0.5  -1.00  10
	// birthDate                height                   0.6  -1.00  10
	// height                   22-rdf-syntax-ns#type    0.5  -1.00  10
	// position                 position                 1.0  -1.00  10
	// label                    associatedTeam           0.5  -1.00  5
	// label                    prefLabel                0.7  -1.00  5
	// position                 associatedTeam           0.7  -1.00  5
	// ...
	//
	// positive means = distinctive evidence (explore there);
	// negative means = indistinct bands ALEX learned to avoid (cf. the paper's owl:Thing example).
	//
	// restored session holds 69 links (same as before: true)
}

// TestLearnedFeaturesOrder: LearnedFeatures merges every partition's report
// into one row per feature and band, in the documented order — mean
// descending, then visits descending, then the predicates and the band
// ascending — so rows print the same way on every run.
func TestLearnedFeaturesOrder(t *testing.T) {
	w := newNBAWorld(23)
	sess := w.ws.NewSession(w.dbpedia, w.nytimes, alex.Options{Partitions: 2, EpisodeSize: 20, Seed: 23})
	sess.SeedFromPARIS()
	sess.RunSimulated(w.judge, 60)
	got := sess.LearnedFeatures(3)
	if len(got) < 2 {
		t.Fatalf("LearnedFeatures(3) = %v, want rows to order", got)
	}
	seen := map[alex.FeatureQuality]int{}
	for i, f := range got {
		k := alex.FeatureQuality{Pred1: f.Pred1, Pred2: f.Pred2, Band: f.Band}
		if j, ok := seen[k]; ok {
			t.Errorf("rows %d %v and %d %v share a feature and band", j, got[j], i, f)
		}
		seen[k] = i
		if f.Visits < 3 {
			t.Errorf("row %d %v has fewer than 3 visits", i, f)
		}
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if c := cmp.Or(
			cmp.Compare(b.Mean, a.Mean),
			cmp.Compare(b.Visits, a.Visits),
			cmp.Compare(a.Pred1, b.Pred1),
			cmp.Compare(a.Pred2, b.Pred2),
			cmp.Compare(a.Band, b.Band),
		); c > 0 {
			t.Errorf("row %d %v sorts after row %d %v", i-1, a, i, b)
		}
	}
}

// nbaWorld is the generated NBA DBpedia/NYTimes pair mirrored into a
// workspace, with its ground truth as the public Link type.
type nbaWorld struct {
	ws               *alex.Workspace
	dbpedia, nytimes *alex.Dataset
	truth            map[alex.Link]bool
}

func newNBAWorld(seed int64) nbaWorld {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, seed))
	w := nbaWorld{ws: alex.NewWorkspace(), truth: map[alex.Link]bool{}}
	w.dbpedia = mirror(w.ws, pair.DS1)
	w.nytimes = mirror(w.ws, pair.DS2)
	for _, l := range pair.Truth.Links() {
		w.truth[alex.Link{Left: pair.Dict.Term(l.Left), Right: pair.Dict.Term(l.Right)}] = true
	}
	return w
}

// judge is the simulated user: it approves exactly the ground-truth links.
func (w nbaWorld) judge(l alex.Link) bool { return w.truth[l] }

// mirror copies a generated data set into the workspace.
func mirror(ws *alex.Workspace, src *store.Store) *alex.Dataset {
	ds := ws.NewDataset(src.Name())
	for _, t := range src.MatchTerms(rdf.Term{}, rdf.Term{}, rdf.Term{}) {
		ds.Add(t)
	}
	return ds
}

// local is what follows an IRI's last '/'.
func local(iri string) string {
	return iri[strings.LastIndexByte(iri, '/')+1:]
}

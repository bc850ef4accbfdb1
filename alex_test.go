package alex

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
)

const (
	dbo = "http://db.example/ontology/"
	dbr = "http://db.example/resource/"
	nyo = "http://nyt.example/ontology/"
	nyr = "http://nyt.example/id/"
)

// buildSession assembles the paper's motivating example: DBpedia knows the
// NBA MVP of 2013, the New York Times has the articles.
func buildSession(t *testing.T) (*Workspace, *Session) {
	t.Helper()
	ws := NewWorkspace()
	db := ws.NewDataset("dbpedia")
	ny := ws.NewDataset("nytimes")

	db.Add(Triple{S: IRI(dbr + "LeBron_James"), P: IRI(dbo + "award"), O: String("NBA MVP 2013")})
	db.Add(Triple{S: IRI(dbr + "LeBron_James"), P: IRI(dbo + "label"), O: String("LeBron James")})
	db.Add(Triple{S: IRI(dbr + "LeBron_James"), P: IRI(dbo + "birthDate"), O: String("1984-12-30")})
	db.Add(Triple{S: IRI(dbr + "Kevin_Durant"), P: IRI(dbo + "label"), O: String("Kevin Durant")})
	db.Add(Triple{S: IRI(dbr + "Kevin_Durant"), P: IRI(dbo + "birthDate"), O: String("1988-09-29")})

	ny.Add(Triple{S: IRI(nyr + "lebron_per"), P: IRI(nyo + "prefLabel"), O: String("James, LeBron")})
	ny.Add(Triple{S: IRI(nyr + "lebron_per"), P: IRI(nyo + "born"), O: Int(1984)})
	ny.Add(Triple{S: IRI(nyr + "article1"), P: IRI(nyo + "about"), O: IRI(nyr + "lebron_per")})
	ny.Add(Triple{S: IRI(nyr + "article2"), P: IRI(nyo + "about"), O: IRI(nyr + "lebron_per")})

	sess := ws.NewSession(db, ny, Options{Partitions: 1, Seed: 7})
	return ws, sess
}

func TestSessionEndToEnd(t *testing.T) {
	_, sess := buildSession(t)
	// Seed the LeBron link manually (PARIS would need two equality hits).
	n := sess.SeedLinks([]Link{{Left: IRI(dbr + "LeBron_James"), Right: IRI(nyr + "lebron_per")}})
	if n != 1 {
		t.Fatalf("seeded %d links", n)
	}
	res, err := sess.Query(context.Background(), `SELECT ?article WHERE {
		?p <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
	if res.Answers[0].UsedLinks() != 1 {
		t.Errorf("UsedLinks = %d, want 1", res.Answers[0].UsedLinks())
	}
	sess.Approve(res.Answers[0])
	changed := sess.EndEpisode()
	t.Logf("episode changed %d links; now %d candidates", changed, len(sess.Links()))
	if len(sess.Links()) == 0 {
		t.Error("no links after approval")
	}
}

func TestSessionRejectRemovesLink(t *testing.T) {
	_, sess := buildSession(t)
	sess.SeedLinks([]Link{{Left: IRI(dbr + "Kevin_Durant"), Right: IRI(nyr + "lebron_per")}})
	res, err := sess.Query(context.Background(), `SELECT ?article WHERE {
		?p <`+dbo+`label> "Kevin Durant" .
		?article <`+nyo+`about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("wrong link produced no answers to reject")
	}
	sess.Reject(res.Answers[0])
	sess.EndEpisode()
	for _, l := range sess.Links() {
		if l.Left.Value == dbr+"Kevin_Durant" {
			t.Error("rejected link survived")
		}
	}
	// After removal, the query returns nothing.
	res, err = sess.Query(context.Background(), `SELECT ?article WHERE {
		?p <`+dbo+`label> "Kevin Durant" .
		?article <`+nyo+`about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Errorf("answers after rejection = %d", len(res.Answers))
	}
}

func TestSessionSeedUnknownTermsSkipped(t *testing.T) {
	_, sess := buildSession(t)
	n := sess.SeedLinks([]Link{{Left: IRI("http://never/seen"), Right: IRI(nyr + "lebron_per")}})
	if n != 0 {
		t.Errorf("seeded %d links with unknown IRI", n)
	}
}

func TestLoadDataset(t *testing.T) {
	ws := NewWorkspace()
	nt := `<http://x/s> <http://x/p> "hello" .
<http://x/s> <http://x/q> <http://x/o> .
`
	ds, err := ws.LoadDataset("test", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("Len = %d, want 2", ds.Len())
	}
	if ds.Name() != "test" {
		t.Errorf("Name = %q", ds.Name())
	}
	if ds.Stats() == "" {
		t.Error("empty Stats")
	}
	if _, err := ws.LoadDataset("bad", strings.NewReader("junk\n")); err == nil {
		t.Error("malformed N-Triples loaded without error")
	}
}

func TestTermConstructors(t *testing.T) {
	if !IRI("http://x").IsIRI() {
		t.Error("IRI constructor")
	}
	if !String("s").IsLiteral() {
		t.Error("String constructor")
	}
	if LangString("s", "en").Lang != "en" {
		t.Error("LangString constructor")
	}
	if v, ok := Int(5).AsInt(); !ok || v != 5 {
		t.Error("Int constructor")
	}
	if v, ok := Float(2.5).AsFloat(); !ok || v != 2.5 {
		t.Error("Float constructor")
	}
	if Typed("x", "http://dt").Datatype != "http://dt" {
		t.Error("Typed constructor")
	}
}

func TestSessionRunSimulated(t *testing.T) {
	_, sess := buildSession(t)
	sess.SeedLinks([]Link{
		{Left: IRI(dbr + "LeBron_James"), Right: IRI(nyr + "lebron_per")},
		{Left: IRI(dbr + "Kevin_Durant"), Right: IRI(nyr + "lebron_per")}, // wrong
	})
	episodes := sess.RunSimulated(func(l Link) bool {
		return l.Left.Value == dbr+"LeBron_James"
	}, 20)
	if episodes == 0 {
		t.Fatal("no episodes ran")
	}
	for _, l := range sess.Links() {
		if l.Left.Value == dbr+"Kevin_Durant" {
			t.Error("wrong link survived simulation")
		}
	}
	if !sess.Converged() && episodes < 20 {
		t.Error("stopped early without convergence")
	}
}

func TestLoadDatasetTurtle(t *testing.T) {
	ws := NewWorkspace()
	ttl := `@prefix ex: <http://x/> .
ex:s ex:p "hello", "world" ; a ex:Thing .
`
	ds, err := ws.LoadDatasetTurtle("ttl", strings.NewReader(ttl))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 {
		t.Errorf("Len = %d, want 3", ds.Len())
	}
	if _, err := ws.LoadDatasetTurtle("bad", strings.NewReader("ex:s ex:p")); err == nil {
		t.Error("malformed Turtle loaded")
	}
}

func TestSessionSeedFromPARIS(t *testing.T) {
	ws := NewWorkspace()
	left := ws.NewDataset("left")
	right := ws.NewDataset("right")
	// Two equality hits (name + year) push the PARIS score past 0.95.
	left.Add(Triple{S: IRI("http://l/a"), P: IRI("http://l/name"), O: String("Unique Name")})
	left.Add(Triple{S: IRI("http://l/a"), P: IRI("http://l/year"), O: String("1984-12-30")})
	right.Add(Triple{S: IRI("http://r/b"), P: IRI("http://r/label"), O: String("unique name")})
	right.Add(Triple{S: IRI("http://r/b"), P: IRI("http://r/born"), O: String("1984-12-30")})
	sess := ws.NewSession(left, right, Options{Partitions: 1, Seed: 1, ParisThreshold: 0.9})
	if n := sess.SeedFromPARIS(); n != 1 {
		t.Fatalf("SeedFromPARIS = %d, want 1", n)
	}
	links := sess.Links()
	if len(links) != 1 || links[0].Left.Value != "http://l/a" {
		t.Errorf("links = %v", links)
	}
}

func TestSessionSaveLoadAndLearnedFeatures(t *testing.T) {
	_, sess := buildSession(t)
	sess.SeedLinks([]Link{{Left: IRI(dbr + "LeBron_James"), Right: IRI(nyr + "lebron_per")}})
	// Give some feedback so there is learned state.
	res, err := sess.Query(context.Background(), `SELECT ?article WHERE {
		?p <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	sess.Approve(res.Answers[0])
	sess.EndEpisode()

	var buf bytes.Buffer
	if err := sess.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	_, restored := buildSession(t)
	// buildSession creates a fresh workspace; a matching session restores.
	if err := restored.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if len(restored.Links()) != len(sess.Links()) {
		t.Errorf("restored %d links, want %d", len(restored.Links()), len(sess.Links()))
	}
	if err := restored.LoadState(strings.NewReader("junk")); err == nil {
		t.Error("junk state loaded")
	}
	// LearnedFeatures runs (may be empty at this tiny scale).
	_ = sess.LearnedFeatures(1)
}

// TestSessionPathsRepublish: SeedLinks and LoadState change the engine's
// candidates outside an episode, and each must publish them as the
// federation's links and move its data generation.
func TestSessionPathsRepublish(t *testing.T) {
	check := func(s *Session, before uint64, path string) {
		t.Helper()
		got, want := s.node.Fed.Links().Sorted(), s.node.Engine.Candidates().Sorted()
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("after %s: federation serves %v, engine has candidates %v", path, got, want)
		}
		if s.node.Fed.DataGeneration() == before {
			t.Errorf("after %s: data generation did not move", path)
		}
	}
	_, sess := buildSession(t)
	gen := sess.node.Fed.DataGeneration()
	sess.SeedLinks([]Link{{Left: IRI(dbr + "LeBron_James"), Right: IRI(nyr + "lebron_per")}})
	check(sess, gen, "SeedLinks")

	var buf bytes.Buffer
	if err := sess.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	_, restored := buildSession(t)
	gen = restored.node.Fed.DataGeneration()
	if err := restored.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	check(restored, gen, "LoadState")
}

func TestSessionConflictsAndClasses(t *testing.T) {
	_, sess := buildSession(t)
	sess.SeedLinks([]Link{
		{Left: IRI(dbr + "LeBron_James"), Right: IRI(nyr + "lebron_per")},
		{Left: IRI(dbr + "Kevin_Durant"), Right: IRI(nyr + "lebron_per")}, // conflict on right
	})
	conflicts := sess.Conflicts()
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %+v", conflicts)
	}
	if conflicts[0].Side != "right" || conflicts[0].Entity.Value != nyr+"lebron_per" {
		t.Errorf("conflict = %+v", conflicts[0])
	}
	if len(conflicts[0].Partners) != 2 {
		t.Errorf("partners = %v", conflicts[0].Partners)
	}
	// The chain is never composed into one class: no link joins the two
	// DBpedia players, so LeBron James does not take Kevin Durant's label.
	res, err := sess.Query(context.Background(), `SELECT ?p WHERE {
		?p <`+dbo+`award> "NBA MVP 2013" .
		?p <`+dbo+`label> "Kevin Durant" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Errorf("the chain through %s composed: %v", nyr+"lebron_per", res.Answers)
	}
}

package fed

import (
	"context"
	"strings"
	"testing"

	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

const (
	dbp = "http://dbpedia.example/resource/"
	nyt = "http://nytimes.example/id/"
	dbo = "http://dbpedia.example/ontology/"
	nyo = "http://nytimes.example/ontology/"
)

// motivatingFederation reproduces the paper's introduction example: DBpedia
// knows who the NBA MVP of 2013 is; the New York Times data set has the
// articles. Answering "articles about the 2013 MVP" requires the sameAs
// link between the two LeBron James entities.
func motivatingFederation(t *testing.T) (*Federation, linkset.Link) {
	t.Helper()
	dict := rdf.NewDict()
	dbpedia := store.New("dbpedia", dict)
	times := store.New("nytimes", dict)

	lebronDBP := rdf.NewIRI(dbp + "LeBron_James")
	lebronNYT := rdf.NewIRI(nyt + "lebron_james_per")

	dbpedia.Add(rdf.Triple{S: lebronDBP, P: rdf.NewIRI(dbo + "award"), O: rdf.NewString("NBA MVP 2013")})
	dbpedia.Add(rdf.Triple{S: lebronDBP, P: rdf.NewIRI(rdf.RDFSLabel), O: rdf.NewString("LeBron James")})
	dbpedia.Add(rdf.Triple{S: rdf.NewIRI(dbp + "Kevin_Durant"), P: rdf.NewIRI(dbo + "award"), O: rdf.NewString("NBA MVP 2014")})

	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article1"), P: rdf.NewIRI(nyo + "about"), O: lebronNYT})
	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article2"), P: rdf.NewIRI(nyo + "about"), O: lebronNYT})
	times.Add(rdf.Triple{S: rdf.NewIRI(nyt + "article3"), P: rdf.NewIRI(nyo + "about"), O: rdf.NewIRI(nyt + "someone_else_per")})

	f := New(dict, dbpedia, times)
	link := linkset.Link{Left: dict.Intern(lebronDBP), Right: dict.Intern(lebronNYT)}
	f.SetLinks(linkset.FromLinks([]linkset.Link{link}))
	return f, link
}

func TestFederatedMotivatingExample(t *testing.T) {
	f, link := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT ?article WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2 (got %v)", len(res.Answers), res.Answers)
	}
	for _, a := range res.Answers {
		if len(a.Used) != 1 || a.Used[0] != link {
			t.Errorf("answer %v used links %v, want [%v]", a.Binding, a.Used, link)
		}
	}
}

func TestFederatedNoLinkNoAnswer(t *testing.T) {
	f, _ := motivatingFederation(t)
	f.SetLinks(linkset.New()) // remove all links
	res, err := f.ExecuteContext(context.Background(), `SELECT ?article WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Errorf("answers without links = %v", res.Answers)
	}
}

// TestFederatedChainDoesNotCompose pins the one-hop rule: a's name and the
// article about c are in stores of their own, and a third store holds b.
// Through the chain a~b, b~c the join that needs both finds nothing; the
// single link a~c answers it.
func TestFederatedChainDoesNotCompose(t *testing.T) {
	triples := []rdf.Triple{
		{S: iri("a"), P: iri("name"), O: rdf.NewString("A")},
		{S: iri("b"), P: iri("name"), O: rdf.NewString("B")},
		{S: iri("article"), P: iri("about"), O: iri("c")},
	}
	query := `SELECT ?article WHERE { ?p <` + ex + `name> "A" . ?article <` + ex + `about> ?p }`
	for _, c := range []struct {
		links [][2]string
		want  int
	}{
		{[][2]string{{"a", "b"}, {"b", "c"}}, 0},
		{[][2]string{{"a", "c"}}, 1},
	} {
		res, err := smallFederation(triples, c.links...).ExecuteContext(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != c.want {
			t.Errorf("links %v: %d answers %v, want %d", c.links, len(res.Answers), res.Answers, c.want)
		}
	}
}

func TestFederatedSingleSourceNoProvenance(t *testing.T) {
	f, _ := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT ?p WHERE { ?p <`+dbo+`award> "NBA MVP 2013" }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %v", res.Answers)
	}
	if len(res.Answers[0].Used) != 0 {
		t.Errorf("single-source answer has provenance %v", res.Answers[0].Used)
	}
}

func TestFederatedVariableKeepsOriginalBinding(t *testing.T) {
	f, _ := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT ?player ?article WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		// The user asked about the DBpedia entity; the NYT alias must not
		// leak into the projection.
		if got := a.Binding["player"].Value; got != dbp+"LeBron_James" {
			t.Errorf("?player = %s, want DBpedia IRI", got)
		}
	}
}

func TestFederatedConstantSubjectRewrite(t *testing.T) {
	f, link := motivatingFederation(t)
	// Constant DBpedia IRI in object position of a NYT pattern.
	res, err := f.ExecuteContext(context.Background(), `SELECT ?article WHERE {
		?article <`+nyo+`about> <`+dbp+`LeBron_James> .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
	if len(res.Answers[0].Used) != 1 || res.Answers[0].Used[0] != link {
		t.Errorf("provenance = %v", res.Answers[0].Used)
	}
}

func TestFederatedReverseDirectionLink(t *testing.T) {
	f, link := motivatingFederation(t)
	// Start from the NYT side: what awards does the subject of article1 hold?
	res, err := f.ExecuteContext(context.Background(), `SELECT ?award WHERE {
		<`+nyt+`article1> <`+nyo+`about> ?who .
		?who <`+dbo+`award> ?award .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Binding["award"].Value != "NBA MVP 2013" {
		t.Fatalf("answers = %v", res.Answers)
	}
	if len(res.Answers[0].Used) != 1 || res.Answers[0].Used[0] != link {
		t.Errorf("provenance = %v", res.Answers[0].Used)
	}
}

func TestFederatedDistinctAndLimit(t *testing.T) {
	f, _ := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT DISTINCT ?player WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Errorf("distinct answers = %d, want 1", len(res.Answers))
	}
	res, err = f.ExecuteContext(context.Background(), `SELECT ?article WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	} ORDER BY ?article LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Binding["article"].Value != nyt+"article1" {
		t.Errorf("limited answers = %v", res.Answers)
	}
}

func TestFederatedFilter(t *testing.T) {
	f, _ := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT ?p ?a WHERE {
		?p <`+dbo+`award> ?a . FILTER(CONTAINS(?a, "2014"))
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Binding["p"].Value != dbp+"Kevin_Durant" {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestFederatedOptionalAndUnion(t *testing.T) {
	f, _ := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT ?p ?label WHERE {
		?p <`+dbo+`award> ?a .
		OPTIONAL { ?p <`+rdf.RDFSLabel+`> ?label }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
	labeled := 0
	for _, a := range res.Answers {
		if _, ok := a.Binding["label"]; ok {
			labeled++
		}
	}
	if labeled != 1 {
		t.Errorf("labeled = %d, want 1", labeled)
	}

	res, err = f.ExecuteContext(context.Background(), `SELECT ?x WHERE {
		{ ?x <`+dbo+`award> "NBA MVP 2013" } UNION { ?x <`+dbo+`award> "NBA MVP 2014" }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Errorf("union answers = %d, want 2", len(res.Answers))
	}
}

func TestFederatedParseError(t *testing.T) {
	f, _ := motivatingFederation(t)
	if _, err := f.ExecuteContext(context.Background(), `SELECT WHERE`); err == nil {
		t.Error("expected parse error")
	}
}

// TestSelectSources: a pattern goes to the sources whose Count of its
// predicate is not 0, and a variable predicate to every source.
func TestSelectSources(t *testing.T) {
	f, _ := motivatingFederation(t)
	for _, c := range []struct{ pattern, sources string }{
		{`?a <` + nyo + `about> ?w`, "{nytimes}"},
		{`?s ?p ?o`, "{dbpedia,nytimes}"},
		{`?s <http://never/seen> ?o`, "{}"},
	} {
		plan := tracedPlan(t, f, `SELECT * WHERE { `+c.pattern+` }`)
		if len(plan) != 1 || !strings.HasSuffix(strings.TrimSuffix(plan[0], " [exclusive]"), "@ "+c.sources) {
			t.Errorf("%s: plan %v, want sources %s", c.pattern, plan, c.sources)
		}
	}
}

func TestFederationAccessors(t *testing.T) {
	f, _ := motivatingFederation(t)
	if f.Dict() == nil || len(f.sources) != 2 || f.Links().Len() != 1 {
		t.Error("accessors inconsistent")
	}
}

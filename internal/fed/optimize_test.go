package fed

import (
	"context"
	"strings"
	"testing"

	"alex/internal/rdf"
	"alex/internal/store"
)

// skewedFederation builds two stores with very different predicate
// frequencies so the optimizer has something to reorder: "common" has many
// triples, "rare" has one.
func skewedFederation(t *testing.T) *Federation {
	t.Helper()
	dict := rdf.NewDict()
	big := store.New("big", dict)
	small := store.New("small", dict)
	for i := 0; i < 200; i++ {
		big.Add(rdf.Triple{
			S: rdf.NewIRI("http://x/e" + itoa(i)),
			P: rdf.NewIRI("http://x/common"),
			O: rdf.NewString("v" + itoa(i%10)),
		})
	}
	small.Add(rdf.Triple{
		S: rdf.NewIRI("http://x/e7"),
		P: rdf.NewIRI("http://x/rare"),
		O: rdf.NewString("needle"),
	})
	return New(dict, big, small)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestPlanReordersBySelectivity(t *testing.T) {
	f := skewedFederation(t)
	// Written order puts the huge pattern first; the optimizer must run
	// the rare (1-triple) pattern first.
	plan, err := f.PlanDescriptionContext(context.Background(), `SELECT ?s ?v WHERE {
		?s <http://x/common> ?v .
		?s <http://x/rare> "needle" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 {
		t.Fatalf("plan = %v", plan)
	}
	if !strings.Contains(plan[0], "rare") {
		t.Errorf("selective pattern not first: %v", plan)
	}
	if !strings.Contains(plan[0], "[exclusive]") {
		t.Errorf("single-source pattern not marked exclusive: %v", plan)
	}
}

func TestPlanRespectsDisableReorder(t *testing.T) {
	f := skewedFederation(t)
	f.DisableReorder()
	plan, err := f.PlanDescriptionContext(context.Background(), `SELECT ?s ?v WHERE {
		?s <http://x/common> ?v .
		?s <http://x/rare> "needle" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan[0], "common") {
		t.Errorf("naive order not preserved: %v", plan)
	}
	f.reorder = true
	plan, _ = f.PlanDescriptionContext(context.Background(), `SELECT ?s ?v WHERE {
		?s <http://x/common> ?v .
		?s <http://x/rare> "needle" .
	}`)
	if !strings.Contains(plan[0], "rare") {
		t.Errorf("reorder not restored: %v", plan)
	}
}

func TestPlanSameResultsEitherOrder(t *testing.T) {
	f := skewedFederation(t)
	q := `SELECT ?s ?v WHERE {
		?s <http://x/common> ?v .
		?s <http://x/rare> "needle" .
	}`
	ordered, err := f.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	f.DisableReorder()
	naive, err := f.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered.Answers) != len(naive.Answers) {
		t.Fatalf("ordered %d answers, naive %d", len(ordered.Answers), len(naive.Answers))
	}
	if len(ordered.Answers) != 1 || ordered.Answers[0].Binding["s"].Value != "http://x/e7" {
		t.Errorf("answers = %v", ordered.Answers)
	}
}

func TestEstimateCostBoundPositions(t *testing.T) {
	f := skewedFederation(t)
	plan, err := f.PlanDescriptionContext(context.Background(), `SELECT ?a ?b WHERE {
		?a <http://x/common> ?b .
		<http://x/e7> <http://x/common> ?b .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	// The bound-subject pattern is cheaper and must run first.
	if !strings.Contains(plan[0], "<http://x/e7>") {
		t.Errorf("bound-subject pattern not first: %v", plan)
	}
}

func TestPlanDescriptionErrors(t *testing.T) {
	f := skewedFederation(t)
	if _, err := f.PlanDescriptionContext(context.Background(), "NOT SPARQL"); err == nil {
		t.Error("expected parse error")
	}
	plan, err := f.PlanDescriptionContext(context.Background(), `SELECT * WHERE { FILTER(1 = 1) }`)
	if err != nil || plan != nil {
		t.Errorf("no-BGP query: plan=%v err=%v", plan, err)
	}
}

func TestFederatedAsk(t *testing.T) {
	f, link := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `ASK {
		?p <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AskResult() {
		t.Fatal("federated ASK false, want true")
	}
	// The witness answer carries the link that made the ASK true.
	if len(res.Answers[0].Used) != 1 || res.Answers[0].Used[0] != link {
		t.Errorf("ASK provenance = %v", res.Answers[0].Used)
	}
	res, err = f.ExecuteContext(context.Background(), `ASK { ?p <`+dbo+`award> "NBA MVP 1901" }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.AskResult() {
		t.Error("federated ASK true, want false")
	}
}

func TestFederatedValues(t *testing.T) {
	f, _ := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT ?article WHERE {
		VALUES ?p { <`+dbp+`LeBron_James> }
		?article <`+nyo+`about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %v", res.Answers)
	}
	for _, a := range res.Answers {
		if len(a.Used) != 1 {
			t.Errorf("VALUES-bound entity should still bridge via links: %v", a)
		}
	}
}

func TestFederatedAggregateProvenance(t *testing.T) {
	f, link := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT ?p (COUNT(?article) AS ?n) WHERE {
		?p <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?p .
	} GROUP BY ?p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %v", res.Answers)
	}
	a := res.Answers[0]
	if a.Binding["n"].Value != "2" {
		t.Errorf("count = %v", a.Binding["n"])
	}
	// The aggregated answer carries the union of the group's links.
	if len(a.Used) != 1 || a.Used[0] != link {
		t.Errorf("aggregate provenance = %v", a.Used)
	}
}

func TestFederatedAggregateEmptyGroup(t *testing.T) {
	f, _ := motivatingFederation(t)
	res, err := f.ExecuteContext(context.Background(), `SELECT (COUNT(?x) AS ?n) WHERE {
		?x <`+dbo+`award> "never awarded" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Binding["n"].Value != "0" {
		t.Errorf("empty aggregate = %v", res.Answers)
	}
}

func TestFederatedNotExists(t *testing.T) {
	f, _ := motivatingFederation(t)
	// Players with an award but no NYT article about them.
	res, err := f.ExecuteContext(context.Background(), `SELECT ?p WHERE {
		?p <`+dbo+`award> ?a .
		FILTER NOT EXISTS { ?article <`+nyo+`about> ?p }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Binding["p"].Value != dbp+"Kevin_Durant" {
		t.Errorf("NOT EXISTS answers = %v", res.Answers)
	}
	// EXISTS: the LeBron entity has articles (through the link), and the
	// probe's provenance is NOT attached to the answer.
	res, err = f.ExecuteContext(context.Background(), `SELECT ?p WHERE {
		?p <`+dbo+`award> ?a .
		FILTER EXISTS { ?article <`+nyo+`about> ?p }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Binding["p"].Value != dbp+"LeBron_James" {
		t.Fatalf("EXISTS answers = %v", res.Answers)
	}
	if len(res.Answers[0].Used) != 0 {
		t.Errorf("EXISTS probe leaked provenance: %v", res.Answers[0].Used)
	}
}

func TestFederatedConstruct(t *testing.T) {
	f, _ := motivatingFederation(t)
	// Materialize cross-data-set facts: which DBpedia players have NYT
	// coverage.
	res, err := f.ExecuteContext(context.Background(), `CONSTRUCT { ?p <http://out/coveredBy> ?article } WHERE {
		?p <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?p .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 2 {
		t.Fatalf("triples = %v", res.Triples)
	}
	for _, tr := range res.Triples {
		if tr.S.Value != dbp+"LeBron_James" || tr.P.Value != "http://out/coveredBy" {
			t.Errorf("triple = %v", tr)
		}
	}
}

package fed_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"

	"alex/internal/datagen"
	"alex/internal/endpoint"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// ExampleFederation_ExecuteContext runs federated queries over the
// generated NBA DBpedia/NYTimes pair linked by its ground truth: the
// substrate of the paper's Figure 1. A pattern on a NYTimes predicate
// reaches a DBpedia subject through an owl:sameAs link, and each answer
// reports the links it used.
func ExampleFederation_ExecuteContext() {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, 7))
	fmt.Println(pair.DS1.Stats())
	fmt.Println(pair.DS2.Stats())
	fmt.Printf("ground truth: %d sameAs links\n\n", pair.Truth.Len())

	federation := fed.New(pair.Dict, pair.DS1, pair.DS2)
	federation.SetLinks(pair.Truth)
	for _, q := range []struct{ title, text string }{
		{"players and their teams (single source)", `SELECT ?p ?team WHERE {
			?p <http://dbpedia.sim/ontology/team> ?team .
		} ORDER BY ?p LIMIT 5`},
		{"NYTimes names of DBpedia players born 1980+ (federated)", `SELECT ?p ?name WHERE {
			?p <http://dbpedia.sim/ontology/birthDate> ?b .
			?p <http://nytimes.sim/ontology/prefLabel> ?name .
			FILTER(?b >= "1980-01-01")
		} ORDER BY ?p LIMIT 5`},
		{"point guards with a NYTimes identity (federated, filtered)", `SELECT ?p ?nyname WHERE {
			?p <http://dbpedia.sim/ontology/position> "PG" .
			?p <http://nytimes.sim/ontology/prefLabel> ?nyname .
		} ORDER BY ?p LIMIT 5`},
	} {
		fmt.Printf("== %s ==\n", q.title)
		printResult(federation, q.text)
	}
	// Output:
	// DBpedia-NBA: 1704 triples, 213 subjects, 7 predicates
	// NYTimes: 1019 triples, 163 subjects, 6 predicates
	// ground truth: 93 sameAs links
	//
	// == players and their teams (single source) ==
	//   ?p=http://dbpedia.sim/resource/Alice_Brown_164  ?team=Clippers
	//   ?p=http://dbpedia.sim/resource/Alice_Johnson_97  ?team=Nets
	//   ?p=http://dbpedia.sim/resource/Alice_Smith_30  ?team=Pistons
	//   ?p=http://dbpedia.sim/resource/Andrew_Allen_49  ?team=Blazers
	//   ?p=http://dbpedia.sim/resource/Andrew_King_183  ?team=Spurs
	//   5 answer(s)
	//
	// == NYTimes names of DBpedia players born 1980+ (federated) ==
	//   ?p=http://nytimes.sim/resource/Andrew_Allen_49  ?name=Andrew Allen  [1 link(s) used]
	//   ?p=http://nytimes.sim/resource/Blake_Griffin_9  ?name=B. Griffin  [1 link(s) used]
	//   ?p=http://nytimes.sim/resource/Daniel_Lewis_45  ?name=Lewis, Daniel  [1 link(s) used]
	//   ?p=http://nytimes.sim/resource/Draymond_DeRozan_85  ?name=DeRozan, Draymond  [1 link(s) used]
	//   ?p=http://nytimes.sim/resource/Elena_Brown_32  ?name=Elena Brown  [1 link(s) used]
	//   5 answer(s)
	//
	// == point guards with a NYTimes identity (federated, filtered) ==
	//   ?p=http://dbpedia.sim/resource/Andrew_Allen_49  ?nyname=Andrew Allen  [1 link(s) used]
	//   ?p=http://dbpedia.sim/resource/Carmelo_Griffin_75  ?nyname=Griffin, Carmelo  [1 link(s) used]
	//   ?p=http://dbpedia.sim/resource/Damian_Lillard_14  ?nyname=Lillard, Damian  [1 link(s) used]
	//   ?p=http://dbpedia.sim/resource/David_Garcia_40  ?nyname=Garcia, David  [1 link(s) used]
	//   ?p=http://dbpedia.sim/resource/Devin_Booker_28  ?nyname=Booker, Devin  [1 link(s) used]
	//   5 answer(s)
}

// ExampleRemoteSource is the deployment shape of the paper's Figure 1:
// each data set behind its own SPARQL HTTP endpoint, as cmd/sparqld
// serves it, and a federator that holds only endpoint clients and the
// sameAs links, joining across the endpoints with parallel bound joins.
func ExampleRemoteSource() {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, 31))

	// The federator shares only IRI strings with the endpoints: each side
	// is served from its own dictionary, and the links are interned into
	// the federator's.
	dict := rdf.NewDict()
	federation := fed.New(dict)
	for _, side := range []struct {
		name string
		src  *store.Store
	}{{"dbpedia", pair.DS1}, {"nytimes", pair.DS2}} {
		st := store.New(side.name, rdf.NewDict())
		st.Load(side.src.MatchTerms(rdf.Term{}, rdf.Term{}, rdf.Term{}))
		srv := httptest.NewServer(endpoint.NewHandler(st))
		defer srv.Close()
		federation.AddSource(fed.RemoteSource(endpoint.NewClient(side.name, srv.URL+"/sparql", srv.Client())))
	}
	links := linkset.New()
	for _, l := range pair.Truth.Links() {
		links.Add(linkset.Link{Left: dict.Intern(pair.Dict.Term(l.Left)), Right: dict.Intern(pair.Dict.Term(l.Right))})
	}
	federation.SetLinks(links)
	federation.SetParallelism(4)

	const centers = `SELECT ?p ?name WHERE {
		?p <http://dbpedia.sim/ontology/position> "C" .
		?p <http://nytimes.sim/ontology/prefLabel> ?name .
	}`
	for _, q := range []string{`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`, centers + ` ORDER BY ?p LIMIT 5`} {
		fmt.Println("query:", strings.Join(strings.Fields(q), " "))
		printResult(federation, q)
	}

	plan, err := federation.PlanDescriptionContext(context.Background(), centers)
	if err != nil {
		panic(err)
	}
	fmt.Println("optimizer plan (sources chosen by remote COUNT probes):")
	for _, line := range plan {
		fmt.Println(" ", line)
	}
	// Output:
	// query: SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }
	//   ?n=2730
	//   1 answer(s)
	//
	// query: SELECT ?p ?name WHERE { ?p <http://dbpedia.sim/ontology/position> "C" . ?p <http://nytimes.sim/ontology/prefLabel> ?name . } ORDER BY ?p LIMIT 5
	//   ?p=http://dbpedia.sim/resource/Bradley_Beal_22  ?name=Beal, Braldey  [1 link(s) used]
	//   ?p=http://dbpedia.sim/resource/Clara_Taylor_36  ?name=Clara Taylor  [1 link(s) used]
	//   ?p=http://dbpedia.sim/resource/DeMar_Lowry_86  ?name=Lowry, DeMar  [1 link(s) used]
	//   ?p=http://dbpedia.sim/resource/Devin_Booker_28  ?name=Booker, Devin  [1 link(s) used]
	//   ?p=http://dbpedia.sim/resource/Donovan_Mitchell_29  ?name=Donovan Mitchell  [1 link(s) used]
	//   5 answer(s)
	//
	// optimizer plan (sources chosen by remote COUNT probes):
	//   ?p <http://dbpedia.sim/ontology/position> "C" . @ {dbpedia} [exclusive]
	//   ?p <http://nytimes.sim/ontology/prefLabel> ?name . @ {nytimes} [exclusive]
}

// printResult executes query and prints one line per answer, its bindings
// in the query's variable order and the number of sameAs links it used.
func printResult(f *fed.Federation, query string) {
	res, err := f.ExecuteContext(context.Background(), query)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		var cols []string
		for _, v := range res.Vars {
			if t, ok := a.Binding[v]; ok {
				cols = append(cols, fmt.Sprintf("?%s=%s", v, t.Value))
			}
		}
		if n := len(a.Used); n > 0 {
			cols = append(cols, fmt.Sprintf("[%d link(s) used]", n))
		}
		fmt.Println(" ", strings.Join(cols, "  "))
	}
	fmt.Printf("  %d answer(s)\n\n", len(res.Answers))
}

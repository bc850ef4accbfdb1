// Federated querying: generate the synthetic DBpedia/NYTimes pair, link it
// with the ground truth, and run several federated SPARQL queries that
// cross data-set boundaries through owl:sameAs links — the substrate of the
// paper's Figure 1 (source selection, bound joins, link provenance).
//
// Run with: go run ./examples/federated_query
package main

import (
	"context"
	"fmt"
	"log"

	"alex/internal/datagen"
	"alex/internal/fed"
)

func main() {
	ctx := context.Background()
	// A scaled-down DBpedia/NYTimes pair with known ground-truth links.
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, 7))
	fmt.Println(pair.DS1.Stats())
	fmt.Println(pair.DS2.Stats())
	fmt.Printf("ground truth: %d sameAs links\n\n", pair.Truth.Len())

	federation := fed.New(pair.Dict, pair.DS1, pair.DS2)
	federation.SetLinks(pair.Truth)

	queries := []struct {
		title string
		text  string
	}{
		{
			"players and their teams (single source)",
			`SELECT ?p ?team WHERE {
				?p <http://dbpedia.sim/ontology/team> ?team .
			} ORDER BY ?p LIMIT 5`,
		},
		{
			"NYTimes names of DBpedia players born 1980+ (federated)",
			`SELECT ?p ?name WHERE {
				?p <http://dbpedia.sim/ontology/birthDate> ?b .
				?p <http://nytimes.sim/ontology/prefLabel> ?name .
				FILTER(?b >= "1980-01-01")
			} ORDER BY ?p LIMIT 5`,
		},
		{
			"point guards with a NYTimes identity (federated, filtered)",
			`SELECT ?p ?nyname WHERE {
				?p <http://dbpedia.sim/ontology/position> "PG" .
				?p <http://nytimes.sim/ontology/prefLabel> ?nyname .
			} ORDER BY ?p LIMIT 5`,
		},
	}
	for _, q := range queries {
		fmt.Printf("== %s ==\n", q.title)
		res, err := federation.ExecuteContext(ctx, q.text)
		if err != nil {
			log.Fatal(err)
		}
		for _, a := range res.Answers {
			line := ""
			for _, v := range res.Vars {
				if t, ok := a.Binding[v]; ok {
					line += fmt.Sprintf("?%s=%s  ", v, t.Value)
				}
			}
			if n := len(a.Used); n > 0 {
				line += fmt.Sprintf("[%d link(s) used]", n)
			}
			fmt.Println(" ", line)
		}
		fmt.Printf("  %d answer(s)\n\n", len(res.Answers))
	}
}

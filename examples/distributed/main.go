// Distributed federation: each data set runs as its own SPARQL HTTP
// endpoint on localhost (what cmd/sparqld does in production), and a
// federated processor joins across them through owl:sameAs links with
// parallel bound joins — the deployment shape of the paper's Figure 1.
//
// Run with: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"alex/internal/datagen"
	"alex/internal/endpoint"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

func main() {
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, 31))
	ctx := context.Background()

	// Serve each data set on its own localhost endpoint.
	dbpediaURL := serve(pair, 1)
	nytimesURL := serve(pair, 2)
	fmt.Printf("dbpedia endpoint: %s\n", dbpediaURL)
	fmt.Printf("nytimes endpoint: %s\n\n", nytimesURL)

	// The federator holds no data of its own — only endpoint clients and
	// the sameAs links. Links are re-interned into the federator's own
	// dictionary: across processes, only IRI strings are shared.
	fedDict := rdf.NewDict()
	links := linkset.New()
	for _, l := range pair.Truth.Links() {
		links.Add(linkset.Link{
			Left:  fedDict.Intern(pair.Dict.Term(l.Left)),
			Right: fedDict.Intern(pair.Dict.Term(l.Right)),
		})
	}
	federation := fed.New(fedDict)
	federation.AddSource(fed.RemoteSource(endpoint.NewClient("dbpedia", dbpediaURL, nil)))
	federation.AddSource(fed.RemoteSource(endpoint.NewClient("nytimes", nytimesURL, nil)))
	federation.SetLinks(links)
	federation.SetParallelism(4)

	queries := []string{
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
		`SELECT ?p ?name WHERE {
			?p <http://dbpedia.sim/ontology/position> "C" .
			?p <http://nytimes.sim/ontology/prefLabel> ?name .
		} ORDER BY ?p LIMIT 5`,
	}
	for _, q := range queries {
		fmt.Println("query:", q)
		res, err := federation.ExecuteContext(ctx, q)
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
				line += fmt.Sprintf("[%d sameAs link(s)]", n)
			}
			fmt.Println(" ", line)
		}
		fmt.Printf("  %d answer(s)\n\n", len(res.Answers))
	}

	// Source-selection plan against live endpoints (COUNT probes over HTTP).
	plan, err := federation.PlanDescriptionContext(ctx, `SELECT ?p ?name WHERE {
		?p <http://dbpedia.sim/ontology/position> "C" .
		?p <http://nytimes.sim/ontology/prefLabel> ?name .
	}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimizer plan (sources chosen by remote COUNT probes):")
	for _, line := range plan {
		fmt.Println(" ", line)
	}
}

// serve starts an HTTP SPARQL endpoint for one side of the pair on an
// ephemeral localhost port and returns its /sparql URL. Note the endpoint
// gets its own term dictionary: nothing is shared with the federator
// except IRI strings, exactly as in a real deployment.
func serve(pair *datagen.Pair, side int) string {
	src := pair.DS1
	if side == 2 {
		src = pair.DS2
	}
	// Copy into an isolated store with a fresh dictionary: nothing is
	// shared with the federator except IRI strings, as in a real
	// deployment.
	st := store.New(src.Name(), rdf.NewDict())
	for _, subj := range src.Subjects() {
		e, _ := src.Entity(subj)
		for i := range e.Preds {
			st.Add(rdf.Triple{
				S: pair.Dict.Term(subj),
				P: pair.Dict.Term(e.Preds[i]),
				O: pair.Dict.Term(e.Objs[i]),
			})
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		_ = http.Serve(ln, endpoint.NewHandler(st))
	}()
	return "http://" + ln.Addr().String() + "/sparql"
}

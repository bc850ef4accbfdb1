// Quickstart: build two tiny RDF data sets, link one entity, run a
// federated query whose answer depends on the link, give feedback, and
// watch ALEX update the candidate links.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"alex"
)

const (
	dbo = "http://dbpedia.example/ontology/"
	dbr = "http://dbpedia.example/resource/"
	nyo = "http://nytimes.example/ontology/"
	nyr = "http://nytimes.example/id/"
)

func main() {
	ws := alex.NewWorkspace()

	// DBpedia-style facts: who is the NBA MVP of 2013?
	dbpedia := ws.NewDataset("dbpedia")
	dbpedia.Add(alex.Triple{S: alex.IRI(dbr + "LeBron_James"), P: alex.IRI(dbo + "award"), O: alex.String("NBA MVP 2013")})
	dbpedia.Add(alex.Triple{S: alex.IRI(dbr + "LeBron_James"), P: alex.IRI(dbo + "label"), O: alex.String("LeBron James")})
	dbpedia.Add(alex.Triple{S: alex.IRI(dbr + "LeBron_James"), P: alex.IRI(dbo + "birthYear"), O: alex.Int(1984)})

	// New York Times-style facts: which articles are about whom?
	nytimes := ws.NewDataset("nytimes")
	nytimes.Add(alex.Triple{S: alex.IRI(nyr + "lebron_james_per"), P: alex.IRI(nyo + "prefLabel"), O: alex.String("James, LeBron")})
	nytimes.Add(alex.Triple{S: alex.IRI(nyr + "lebron_james_per"), P: alex.IRI(nyo + "born"), O: alex.Int(1984)})
	nytimes.Add(alex.Triple{S: alex.IRI(nyr + "article_1"), P: alex.IRI(nyo + "about"), O: alex.IRI(nyr + "lebron_james_per")})
	nytimes.Add(alex.Triple{S: alex.IRI(nyr + "article_2"), P: alex.IRI(nyo + "about"), O: alex.IRI(nyr + "lebron_james_per")})

	fmt.Println(dbpedia.Stats())
	fmt.Println(nytimes.Stats())

	// A linking session over the two data sets.
	sess := ws.NewSession(dbpedia, nytimes, alex.Options{Partitions: 1, Seed: 1})
	seeded := sess.SeedLinks([]alex.Link{{
		Left:  alex.IRI(dbr + "LeBron_James"),
		Right: alex.IRI(nyr + "lebron_james_per"),
	}})
	fmt.Printf("seeded %d candidate link(s)\n\n", seeded)

	// The paper's motivating query: "Find all New York Times articles
	// about the NBA's MVP of 2013." Answering it requires both data sets
	// and the sameAs link between the two LeBron James entities.
	res, err := sess.Query(context.Background(), `SELECT ?article WHERE {
		?player <`+dbo+`award> "NBA MVP 2013" .
		?article <`+nyo+`about> ?player .
	} ORDER BY ?article`)
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range res.Answers {
		fmt.Printf("answer %d: %s (via %d sameAs link(s))\n",
			i+1, a.Bindings["article"].Value, a.UsedLinks())
	}

	// The user confirms the first answer is correct; ALEX turns that into
	// positive feedback on the link that produced it and explores for
	// similar links.
	sess.Approve(res.Answers[0])
	changed := sess.EndEpisode()
	fmt.Printf("\nafter feedback: %d link change(s); candidate links now:\n", changed)
	for _, l := range sess.Links() {
		fmt.Printf("  %s owl:sameAs %s\n", l.Left.Value, l.Right.Value)
	}
}

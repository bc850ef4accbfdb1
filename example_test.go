package alex_test

import (
	"context"
	"fmt"
	"strings"

	"alex"
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

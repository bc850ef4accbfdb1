// Specific-domain linking through the public API: the paper's §7.2.2
// single-user setting over NBA basketball players (Fig 4(c)). The session
// is driven interactively — federated queries over the linked data sets,
// approvals and rejections of the returned answers, small episodes of 10
// feedback items — exactly the workflow an application embedding ALEX
// would use.
//
// Run with: go run ./examples/nba_domain
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"alex"
	"alex/internal/datagen"
)

func main() {
	// Generate the NBA scenario and mirror it into public-API data sets.
	pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(1, 9))
	ws := alex.NewWorkspace()
	dbpedia := mirror(ws, pair, 1)
	nytimes := mirror(ws, pair, 2)
	fmt.Println(dbpedia.Stats())
	fmt.Println(nytimes.Stats())

	// Ground truth as the public Link type, used only to simulate the user.
	truth := map[[2]string]bool{}
	for _, l := range pair.Truth.Links() {
		truth[[2]string{pair.Dict.Term(l.Left).Value, pair.Dict.Term(l.Right).Value}] = true
	}

	sess := ws.NewSession(dbpedia, nytimes, alex.Options{
		Partitions:  2,
		EpisodeSize: 10, // the paper's specific-domain episode size
		Seed:        9,
	})
	n := sess.SeedFromPARIS()
	fmt.Printf("PARIS seeded %d candidate links (truth has %d)\n\n", n, len(truth))

	// The simulated user: approves links present in the ground truth.
	user := func(l alex.Link) bool {
		return truth[[2]string{l.Left.Value, l.Right.Value}]
	}
	episodes := sess.RunSimulated(user, 60)

	correct, wrong := 0, 0
	for _, l := range sess.Links() {
		if user(l) {
			correct++
		} else {
			wrong++
		}
	}
	fmt.Printf("converged after %d episodes: %d correct links, %d wrong (truth %d)\n\n",
		episodes, correct, wrong, len(truth))

	// With the improved links, the motivating query now reaches far more
	// players than the PARIS seed links allowed.
	res, err := sess.Query(context.Background(), `SELECT DISTINCT ?player WHERE {
		?player <http://dbpedia.sim/ontology/position> "PG" .
		?player <http://nytimes.sim/ontology/prefLabel> ?nyname .
	}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point guards reachable across both data sets: %d\n", len(res.Answers))
	for i, a := range res.Answers {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s\n", shortIRI(a.Bindings["player"].Value))
	}
}

// mirror copies one side of a generated pair into a public-API data set.
func mirror(ws *alex.Workspace, pair *datagen.Pair, side int) *alex.Dataset {
	src := pair.DS1
	if side == 2 {
		src = pair.DS2
	}
	ds := ws.NewDataset(src.Name())
	for _, subj := range src.Subjects() {
		e, _ := src.Entity(subj)
		for i := range e.Preds {
			ds.Add(alex.Triple{
				S: pair.Dict.Term(subj),
				P: pair.Dict.Term(e.Preds[i]),
				O: pair.Dict.Term(e.Objs[i]),
			})
		}
	}
	return ds
}

func shortIRI(iri string) string {
	if i := strings.LastIndexByte(iri, '/'); i >= 0 {
		return iri[i+1:]
	}
	return iri
}

package linkset

import (
	"slices"
	"sort"

	"alex/internal/rdf"
)

// This file holds link-set refinement utilities used around the core
// pipeline: mutual-best filtering of scored links (the classic 1:1
// stable-matching heuristic automatic linkers apply) and detection of
// functional conflicts (one entity linked to several counterparts), which
// is how an operator audits a candidate set before accepting it.

// MutualBest keeps the scored links where each endpoint is the other's
// highest-scoring partner: the 1:1 filter that turns a many-to-many scored
// alignment into an injective mapping. Ties are broken by (Left, Right) id
// order for determinism. The input is not modified.
func MutualBest(scored []Scored) []Scored {
	bestLeft := map[rdf.TermID]Scored{}  // best partner per left entity
	bestRight := map[rdf.TermID]Scored{} // best partner per right entity
	better := func(a, b Scored) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return Compare(a.Link, b.Link) < 0
	}
	// Dedupe the input by link first (keeping the best score), so a link
	// appearing twice cannot appear twice in the output.
	byLink := map[Link]Scored{}
	for _, s := range scored {
		if prev, ok := byLink[s.Link]; !ok || s.Score > prev.Score {
			byLink[s.Link] = s
		}
	}
	for _, s := range byLink {
		if prev, ok := bestLeft[s.Link.Left]; !ok || better(s, prev) {
			bestLeft[s.Link.Left] = s
		}
		if prev, ok := bestRight[s.Link.Right]; !ok || better(s, prev) {
			bestRight[s.Link.Right] = s
		}
	}
	var out []Scored
	for _, s := range byLink {
		if bestLeft[s.Link.Left].Link == s.Link && bestRight[s.Link.Right].Link == s.Link {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b Scored) int { return Compare(a.Link, b.Link) })
	return out
}

// Conflict reports one entity linked to multiple counterparts.
type Conflict struct {
	// Entity is the shared endpoint.
	Entity rdf.TermID
	// Side is "left" or "right" — which side of the links Entity is on.
	Side string
	// Partners are the conflicting counterparts, sorted.
	Partners []rdf.TermID
}

// Conflicts returns the functional violations in a link set: every left
// entity with more than one right partner and every right entity with more
// than one left partner. owl:sameAs between two deduplicated data sets
// should be 1:1; conflicts usually mark wrong links worth reviewing first.
func Conflicts(s *Set) []Conflict {
	byLeft := map[rdf.TermID][]rdf.TermID{}
	byRight := map[rdf.TermID][]rdf.TermID{}
	for _, l := range s.Sorted() {
		byLeft[l.Left] = append(byLeft[l.Left], l.Right)
		byRight[l.Right] = append(byRight[l.Right], l.Left)
	}
	var out []Conflict
	collect := func(m map[rdf.TermID][]rdf.TermID, side string) {
		ids := make([]rdf.TermID, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			partners := m[id]
			if len(partners) < 2 {
				continue
			}
			sort.Slice(partners, func(i, j int) bool { return partners[i] < partners[j] })
			out = append(out, Conflict{Entity: id, Side: side, Partners: partners})
		}
	}
	collect(byLeft, "left")
	collect(byRight, "right")
	return out
}

// Incremental maintenance of a Space under triple upserts.
//
// The entry points below keep a built Space equivalent — byte-identical
// under DumpCanonical — to a from-scratch Build over the same final
// store state, while touching only the pairs a delta can actually
// affect. The affected set is derived from token blocking: a pair
// (l, r) exists only if l and r share a blocking token, so a change to
// a DS2 subject r can only create, destroy or rescore pairs whose left
// side shares a token with r's old or new token set. Changed left
// subjects are rescored wholesale (their candidate set is re-derived
// from the live blocks), which also covers attribute changes that move
// no tokens — e.g. an added IRI-valued attribute contributes no
// blocking key but still reshapes the similarity matrix of every
// existing pair of that subject.
package feature

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"

	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// SetObserver attaches delta instruments to the registry. Spaces built
// without an observer count into nil-safe no-ops.
func (sp *Space) SetObserver(reg *obs.Registry) {
	sp.cUpserts = reg.Counter(obs.FeatureDeltaUpserts)
	sp.cRemoves = reg.Counter(obs.FeatureDeltaRemoves)
	sp.cObjDeltas = reg.Counter(obs.FeatureDeltaObjectDeltas)
	sp.cSplices = reg.Counter(obs.FeatureDeltaSplices)
}

// UpsertSubject adds subj to the partition (or refreshes it after its
// DS1 entity changed) and rescores exactly its candidate pairs. ds1 must
// be the store the Space was built over.
func (sp *Space) UpsertSubject(ds1 *store.Store, subj rdf.TermID) {
	sp.cUpserts.Inc()
	sp.members[subj] = struct{}{}
	e := sp.prof.entity(ds1, subj)
	sp.setLeftTokens(subj, e.tokens())
	sp.rescoreSubject(subj, e)
}

// RemoveSubject drops subj and all its pairs from the partition.
func (sp *Space) RemoveSubject(subj rdf.TermID) {
	if _, ok := sp.members[subj]; !ok {
		return
	}
	sp.cRemoves.Inc()
	delete(sp.members, subj)
	sp.setLeftTokens(subj, nil)
	for _, l := range sp.leftPairs[subj] {
		sp.removePair(l)
	}
	delete(sp.leftPairs, subj)
}

// ObjectDelta is what one RightSide.Apply changed, as far as the spaces
// reading the side need to know to catch up.
type ObjectDelta struct {
	// changed is the number of ds2 subjects the delta reported.
	changed int
	// tokens holds every blocking token a changed subject held before the
	// delta or holds after it (with repeats).
	tokens []string
}

// Apply ingests DS2-side changes into the side: changed lists the ds2
// subjects whose entities were added, extended or retracted since the
// last delta. It re-reads them from ds2 — the store the side was made
// over — profiles any new object terms and rewrites their posting lists.
// Every space reading the side must then be handed the returned delta
// (Space.ApplyObjectDelta) before it is used again. Apply is the side's
// only writer: call it once per delta, from one goroutine, while no space
// is scoring against the side.
func (r *RightSide) Apply(ds2 *store.Store, changed []rdf.TermID) ObjectDelta {
	r.subjects = len(ds2.Subjects())
	d := ObjectDelta{changed: len(changed)}
	for _, subj := range changed {
		oldToks, newToks := r.set(subj, r.prof.entity(ds2, subj))
		d.tokens = append(append(d.tokens, oldToks...), newToks...)
	}
	return d
}

// ApplyObjectDelta catches the space up with a delta already applied to
// its right side: it rescores every partition subject sharing a blocking
// token with a changed ds2 subject's old or new token set — the exact set
// of lefts whose candidate lists or feature sets can differ. Returns the
// number of rescored subjects.
func (sp *Space) ApplyObjectDelta(ds1 *store.Store, d ObjectDelta) int {
	if d.changed == 0 {
		return 0
	}
	sp.cObjDeltas.Inc()
	if sp.tokLeft == nil {
		sp.tokLeft = make(map[string]map[rdf.TermID]struct{})
		for subj, toks := range sp.leftTok {
			sp.indexLeftTokens(subj, toks)
		}
	}
	affected := map[rdf.TermID]struct{}{}
	for _, tok := range d.tokens {
		for l := range sp.tokLeft[tok] {
			affected[l] = struct{}{}
		}
	}
	lefts := make([]rdf.TermID, 0, len(affected))
	for l := range affected {
		lefts = append(lefts, l)
	}
	slices.Sort(lefts)
	for _, l := range lefts {
		sp.rescoreSubject(l, sp.prof.entity(ds1, l))
	}
	return len(lefts)
}

// rescoreSubject replaces every pair of one partition subject: old pairs
// are spliced out of the per-feature indexes, the subject is rescored
// against the right side as it stands, and the surviving pairs spliced
// back in.
func (sp *Space) rescoreSubject(subj rdf.TermID, e entity) {
	for _, l := range sp.leftPairs[subj] {
		sp.removePair(l)
	}
	delete(sp.leftPairs, subj)
	if sp.sc == nil {
		sp.sc = newScorer(sp.opt.Theta, memoCells)
	}
	scored := sp.sc.scoreSubject(subj, e, sp.right)
	if len(scored) == 0 {
		return
	}
	links := make([]linkset.Link, 0, len(scored))
	for _, e := range scored {
		sp.pairs[e.link] = e.fs
		for i, f := range e.fs.Features {
			sp.spliceIn(f, e.fs.Scores[i], e.link)
		}
		links = append(links, e.link)
	}
	slices.SortFunc(links, linkset.Compare)
	sp.leftPairs[subj] = links
}

// removePair deletes one pair and splices its entries out of every
// feature index it appears in.
func (sp *Space) removePair(l linkset.Link) {
	fs, ok := sp.pairs[l]
	if !ok {
		return
	}
	delete(sp.pairs, l)
	for i, f := range fs.Features {
		sp.spliceOut(f, fs.Scores[i], l)
	}
}

// spliceIn binary-search-inserts one entry into a feature's score index.
func (sp *Space) spliceIn(f Feature, score float64, l linkset.Link) {
	sp.cSplices.Inc()
	entries, e := sp.index[f], scoredLink{score: score, link: l}
	i, _ := slices.BinarySearchFunc(entries, e, compareEntries)
	sp.index[f] = slices.Insert(entries, i, e)
}

// spliceOut binary-search-removes one entry from a feature's score
// index, deleting the feature key when its last entry goes (Build never
// materializes an empty index, so Features() stays equivalent).
func (sp *Space) spliceOut(f Feature, score float64, l linkset.Link) {
	sp.cSplices.Inc()
	entries := sp.index[f]
	i, found := slices.BinarySearchFunc(entries, scoredLink{score: score, link: l}, compareEntries)
	if !found {
		return
	}
	entries = append(entries[:i], entries[i+1:]...)
	if len(entries) == 0 {
		delete(sp.index, f)
		return
	}
	sp.index[f] = entries
}

// setLeftTokens rewrites the DS1-side token entries of one partition
// subject; nil toks removes the subject from them.
func (sp *Space) setLeftTokens(subj rdf.TermID, toks []string) {
	if sp.tokLeft != nil {
		for _, tok := range sp.leftTok[subj] {
			if set := sp.tokLeft[tok]; set != nil {
				delete(set, subj)
				if len(set) == 0 {
					delete(sp.tokLeft, tok)
				}
			}
		}
	}
	if len(toks) == 0 {
		delete(sp.leftTok, subj)
		return
	}
	sp.leftTok[subj] = toks
	if sp.tokLeft != nil {
		sp.indexLeftTokens(subj, toks)
	}
}

// indexLeftTokens adds one subject's tokens to tokLeft.
func (sp *Space) indexLeftTokens(subj rdf.TermID, toks []string) {
	for _, tok := range toks {
		set := sp.tokLeft[tok]
		if set == nil {
			set = map[rdf.TermID]struct{}{}
			sp.tokLeft[tok] = set
		}
		set[subj] = struct{}{}
	}
}

// DumpCanonical writes a canonical text rendering of the Space — the
// equivalence contract between incremental maintenance and a
// from-scratch Build: two Spaces over the same final store state must
// dump byte-identically. Scores are formatted as hexadecimal floats, so
// equality means bit-equality.
func (sp *Space) DumpCanonical(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "space total=%d pairs=%d features=%d\n", sp.TotalPairs(), len(sp.pairs), len(sp.index))
	for _, l := range sp.Links() {
		fs := sp.pairs[l]
		fmt.Fprintf(bw, "pair %d %d", l.Left, l.Right)
		for i, f := range fs.Features {
			fmt.Fprintf(bw, " (%d,%d)=%s", f.P1, f.P2, strconv.FormatFloat(fs.Scores[i], 'x', -1, 64))
		}
		fmt.Fprintln(bw)
	}
	for _, f := range sp.Features() {
		fmt.Fprintf(bw, "index (%d,%d)", f.P1, f.P2)
		for _, e := range sp.index[f] {
			fmt.Fprintf(bw, " %s@%d,%d", strconv.FormatFloat(e.score, 'x', -1, 64), e.link.Left, e.link.Right)
		}
		fmt.Fprintln(bw)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("feature: dump canonical: %w", err)
	}
	return nil
}

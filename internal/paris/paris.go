// Package paris reimplements (in simplified form) the PARIS probabilistic
// alignment algorithm of Suchanek, Abiteboul and Senellart (PVLDB 2011),
// which the paper uses as its automatic linking baseline (§7.1): the
// initial candidate links ALEX starts from are PARIS links with score
// greater than 0.95.
//
// Like the original, this implementation is fully automatic and takes no
// training data. It combines three signals:
//
//   - value equality: two entities sharing a literal value is evidence they
//     are the same individual;
//   - functionality: evidence through a predicate that has one value per
//     subject (birthDate) is stronger than through a multi-valued one
//     (rdf:type);
//   - rarity: a value that more than maxEvidenceFreq entities carry on
//     either side (a type IRI, a playing position) is no evidence.
//
// The original's relation alignment, learned over further passes, is left
// out: on data sets of this size its estimates can only lower scores.
// Signals are combined probabilistically: score = 1 − Π(1 − wᵢ), capped so
// that a single piece of evidence never exceeds evidenceCap. With the
// paper's 0.95 threshold this means at least two independent pieces of
// evidence are required — which is exactly what makes PARIS precise but
// blind to surface-form variation (inverted names, reformatted dates), the
// regime ALEX improves on.
package paris

import (
	"sort"
	"strings"

	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Config tunes the linker.
type Config struct {
	// Threshold is the minimum score for a link to be emitted. The paper
	// uses 0.95.
	Threshold float64
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config { return Config{Threshold: 0.95} }

const (
	// maxEvidenceFreq drops a shared value as evidence when more than this
	// many entities on either side carry it (generic values like a type
	// IRI or a playing position carry no identity signal).
	maxEvidenceFreq = 5
	// evidenceCap bounds the weight of a single piece of evidence.
	evidenceCap = 0.90
)

// predPair is a predicate pair (p1 from ds1, p2 from ds2) through which a
// candidate pair shares a value.
type predPair struct {
	p1, p2 rdf.TermID
}

// evidenceKey is one candidate pair sharing a value through one predicate
// pair: each counts once as evidence.
type evidenceKey struct {
	link linkset.Link
	pp   predPair
}

// Link aligns ds1 against ds2 and returns every entity pair whose combined
// score passes cfg.Threshold, sorted by descending score then by ids.
func Link(ds1, ds2 *store.Store, cfg Config) []linkset.Scored {
	if cfg.Threshold == 0 {
		cfg = DefaultConfig()
	}
	idx := buildIndex(ds2, maxEvidenceFreq)
	fun1 := funcCache{st: ds1, m: map[rdf.TermID]float64{}}
	fun2 := funcCache{st: ds2, m: map[rdf.TermID]float64{}}

	// Each pair's evidence: one functionality-weighted strength per
	// predicate pair through which it shares a value.
	pairEvidence := map[linkset.Link][]float64{}
	// seen holds the subject under way's (pair, predicate pair)s: one map,
	// cleared for each subject.
	seen := map[evidenceKey]struct{}{}
	for _, subj := range ds1.Subjects() {
		ent, ok := ds1.Entity(subj)
		if !ok {
			continue
		}
		clear(seen)
		for i := range ent.Preds {
			key := normalizeValue(ds1.Dict().Term(ent.Objs[i]))
			if key == "" {
				continue
			}
			postings := idx.byValue[key]
			if len(postings) == 0 || len(postings) > maxEvidenceFreq {
				continue
			}
			// Frequency of the value on the ds1 side, for symmetry.
			if ds1.Count(rdf.NoTerm, rdf.NoTerm, ent.Objs[i]) > maxEvidenceFreq {
				continue
			}
			for _, post := range postings {
				l := linkset.Link{Left: subj, Right: post.subject}
				k := evidenceKey{l, predPair{p1: ent.Preds[i], p2: post.pred}}
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				pairEvidence[l] = append(pairEvidence[l], evidenceCap*fun1.get(ent.Preds[i])*fun2.get(post.pred))
			}
		}
	}

	scored := scorePairs(pairEvidence, cfg.Threshold)
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		if scored[i].Link.Left != scored[j].Link.Left {
			return scored[i].Link.Left < scored[j].Link.Left
		}
		return scored[i].Link.Right < scored[j].Link.Right
	})
	return scored
}

// scorePairs combines each pair's evidence probabilistically:
// score = 1 − Π(1 − wᵢ).
func scorePairs(pairEvidence map[linkset.Link][]float64, threshold float64) []linkset.Scored {
	var out []linkset.Scored
	for l, ws := range pairEvidence {
		miss := 1.0
		for _, w := range ws {
			miss *= 1 - w
		}
		score := 1 - miss
		if score >= threshold {
			out = append(out, linkset.Scored{Link: l, Score: score})
		}
	}
	return out
}

// funcCache memoizes predicate functionality per store.
type funcCache struct {
	st *store.Store
	m  map[rdf.TermID]float64
}

func (c *funcCache) get(p rdf.TermID) float64 {
	if v, ok := c.m[p]; ok {
		return v
	}
	v := c.st.Functionality(p)
	c.m[p] = v
	return v
}

// posting is one (subject, predicate) occurrence of a value in ds2.
type posting struct {
	subject rdf.TermID
	pred    rdf.TermID
}

type valueIndex struct {
	byValue map[string][]posting
}

// buildIndex builds the inverted value index of ds2. Values held by more
// than maxFreq subjects are kept (truncation happens at probe time) but
// their posting lists are capped to avoid quadratic blowup on pathological
// data: one extra posting beyond maxFreq marks the list as over-limit.
func buildIndex(ds *store.Store, maxFreq int) *valueIndex {
	idx := &valueIndex{byValue: map[string][]posting{}}
	for _, subj := range ds.Subjects() {
		ent, ok := ds.Entity(subj)
		if !ok {
			continue
		}
		for i := range ent.Preds {
			key := normalizeValue(ds.Dict().Term(ent.Objs[i]))
			if key == "" {
				continue
			}
			if len(idx.byValue[key]) > maxFreq {
				continue
			}
			idx.byValue[key] = append(idx.byValue[key], posting{subject: subj, pred: ent.Preds[i]})
		}
	}
	return idx
}

// normalizeValue renders a term as its equality key: lowercase trimmed
// lexical form for literals, the full IRI for resources. Empty string means
// "not usable as evidence".
func normalizeValue(t rdf.Term) string {
	switch t.Kind {
	case rdf.KindLiteral:
		v := strings.ToLower(strings.TrimSpace(t.Value))
		if v == "" {
			return ""
		}
		return "L" + v
	case rdf.KindIRI:
		return "I" + t.Value
	default:
		return ""
	}
}

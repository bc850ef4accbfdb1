package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"alex/internal/linkset"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Noise controls the surface perturbations applied when projecting a
// canonical entity into one data set's vocabulary.
type Noise struct {
	// Typo is the per-string probability of a single-character edit.
	Typo float64
	// Abbrev is the probability of abbreviating a name ("F. Last").
	Abbrev float64
	// Invert is the probability of rendering a name "Last, First".
	Invert float64
	// Drop is the per-attribute probability of omitting the attribute.
	Drop float64
	// YearOnly is the probability a date is published as a bare year.
	YearOnly float64
	// Jitter is the relative magnitude of numeric perturbation.
	Jitter float64
	// WordEdit is the probability a string value is restyled at the word
	// level: the last word dropped (multi-word values) or a generic
	// qualifier appended (single-word values). This defeats equality-based
	// evidence while keeping token similarity high — the regime where
	// ALEX's similarity exploration recovers what PARIS misses.
	WordEdit float64
}

// Style is a data set's vocabulary: how canonical attribute keys map to
// predicate IRIs.
type Style struct {
	// Base is the IRI prefix for entity and ontology terms.
	Base string
	// Preds maps canonical attribute keys to predicate local names. Keys
	// absent from the map fall back to the canonical key.
	Preds map[string]string
	// UseRDFSLabel publishes the name attribute under rdfs:label too.
	UseRDFSLabel bool
}

// pred returns the predicate IRI for a canonical attribute key.
func (st Style) pred(key string) string {
	local := key
	if m, ok := st.Preds[key]; ok {
		local = m
	}
	return st.Base + "ontology/" + local
}

// entityIRI returns the IRI of an entity in this style.
func (st Style) entityIRI(e Entity) string {
	slug := strings.ReplaceAll(e.Name(), " ", "_")
	slug = strings.ReplaceAll(slug, ",", "")
	return fmt.Sprintf("%sresource/%s_%d", st.Base, slug, e.ID)
}

// DBpediaStyle mimics DBpedia's vocabulary shape.
var DBpediaStyle = Style{
	Base: "http://dbpedia.sim/",
	Preds: map[string]string{
		"name": "label", "birthDate": "birthDate", "height": "height",
		"team": "team", "position": "position", "founded": "foundingYear",
		"city": "locationCity", "population": "populationTotal",
		"formula": "chemicalFormula", "mass": "molecularWeight",
		"iso": "iso6393Code", "family": "languageFamily",
	},
	UseRDFSLabel: true,
}

// OpenCycStyle mimics OpenCyc's vocabulary shape.
var OpenCycStyle = Style{
	Base: "http://opencyc.sim/",
	Preds: map[string]string{
		"name": "prettyString", "birthDate": "dateOfBirth", "height": "heightOfObject",
		"team": "memberOfTeam", "position": "playingPosition", "founded": "yearFounded",
		"city": "cityOfHQ", "population": "numberOfInhabitants",
		"formula": "molecularFormula", "mass": "massOfCompound",
		"iso": "languageCode", "family": "memberOfFamily",
	},
}

// NYTimesStyle mimics the New York Times linked-data vocabulary, including
// its inverted "Last, First" person names.
var NYTimesStyle = Style{
	Base: "http://nytimes.sim/",
	Preds: map[string]string{
		"name": "prefLabel", "birthDate": "born", "team": "associatedTeam",
		"city": "location", "founded": "established",
	},
}

// DrugbankStyle mimics Drugbank's vocabulary shape.
var DrugbankStyle = Style{
	Base: "http://drugbank.sim/",
	Preds: map[string]string{
		"name": "genericName", "formula": "formula", "mass": "averageMass",
		"approved": "approvalYear",
	},
}

// LexvoStyle mimics Lexvo's vocabulary shape.
var LexvoStyle = Style{
	Base: "http://lexvo.sim/",
	Preds: map[string]string{
		"name": "label", "iso": "iso639P3Code", "family": "family",
		"speakers": "numSpeakers",
	},
}

// DogfoodStyle mimics the Semantic Web Dogfood vocabulary shape.
var DogfoodStyle = Style{
	Base: "http://dogfood.sim/",
	Preds: map[string]string{
		"name": "label", "series": "partOfSeries", "year": "year",
		"city": "basedNear",
	},
	UseRDFSLabel: true,
}

// PairSpec describes one linking task: two data sets over a shared entity
// universe plus noise, distractors, and unmatched entities.
type PairSpec struct {
	Name1, Name2 string
	Style1       Style
	Style2       Style
	Domains      []Domain
	// Shared is the number of entities present in both data sets (the
	// ground-truth link count).
	Shared int
	// Only1 and Only2 are additional unmatched entities per side.
	Only1, Only2 int
	// Distract2 near-duplicates of shared entities are added to data set 2
	// (keeping KeepAttrs attribute values verbatim); Distract1 likewise for
	// data set 1.
	Distract1, Distract2 int
	// KeepAttrs is how many leading attributes a distractor copies.
	KeepAttrs int
	Noise1    Noise
	Noise2    Noise
	Seed      int64
}

// Pair is one generated linking task.
type Pair struct {
	Spec  PairSpec
	Dict  *rdf.Dict
	DS1   *store.Store
	DS2   *store.Store
	Truth *linkset.Set
}

// GeneratePair materializes a PairSpec into two stores and a ground truth.
func GeneratePair(spec PairSpec) *Pair {
	r := rand.New(rand.NewSource(spec.Seed))
	if len(spec.Domains) == 0 {
		spec.Domains = []Domain{DomainPerson}
	}
	dict := rdf.NewDict()
	ds1 := store.New(spec.Name1, dict)
	ds2 := store.New(spec.Name2, dict)

	shared := universe(r, spec.Shared, spec.Domains)
	nextID := spec.Shared
	only1 := make([]Entity, spec.Only1)
	for i := range only1 {
		only1[i] = newEntity(r, nextID, spec.Domains[r.Intn(len(spec.Domains))])
		nextID++
	}
	only2 := make([]Entity, spec.Only2)
	for i := range only2 {
		only2[i] = newEntity(r, nextID, spec.Domains[r.Intn(len(spec.Domains))])
		nextID++
	}
	keep := spec.KeepAttrs
	if keep == 0 {
		keep = 2
	}
	distract1 := make([]Entity, 0, spec.Distract1)
	for i := 0; i < spec.Distract1 && len(shared) > 0; i++ {
		src := shared[r.Intn(len(shared))]
		distract1 = append(distract1, distractorOf(r, src, nextID, keep))
		nextID++
	}
	distract2 := make([]Entity, 0, spec.Distract2)
	for i := 0; i < spec.Distract2 && len(shared) > 0; i++ {
		src := shared[r.Intn(len(shared))]
		distract2 = append(distract2, distractorOf(r, src, nextID, keep))
		nextID++
	}

	truth := make([]linkset.Link, len(shared))
	for i, e := range shared {
		iri1 := projectEntity(r, ds1, spec.Style1, e, spec.Noise1)
		iri2 := projectEntity(r, ds2, spec.Style2, e, spec.Noise2)
		truth[i] = linkset.Link{Left: dict.InternIRI(iri1), Right: dict.InternIRI(iri2)}
	}
	for _, e := range only1 {
		projectEntity(r, ds1, spec.Style1, e, spec.Noise1)
	}
	for _, e := range distract1 {
		projectEntity(r, ds1, spec.Style1, e, spec.Noise1)
	}
	for _, e := range only2 {
		projectEntity(r, ds2, spec.Style2, e, spec.Noise2)
	}
	for _, e := range distract2 {
		projectEntity(r, ds2, spec.Style2, e, spec.Noise2)
	}
	return &Pair{Spec: spec, Dict: dict, DS1: ds1, DS2: ds2, Truth: linkset.FromLinks(truth)}
}

// projectEntity renders an entity into a store under a style and noise
// model, returning the entity IRI.
func projectEntity(r *rand.Rand, st *store.Store, style Style, e Entity, n Noise) string {
	iri := style.entityIRI(e)
	subj := rdf.NewIRI(iri)
	st.Add(rdf.Triple{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(style.Base + "class/" + capitalize(e.Domain.String()))})
	// A deliberately indistinct attribute, like the paper's owl:Thing
	// example (§4.2): every entity shares it.
	st.Add(rdf.Triple{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(rdf.OWLThing)})
	for _, a := range e.Attrs {
		if r.Float64() < n.Drop {
			continue
		}
		obj, ok := renderAttr(r, a, n)
		if !ok {
			continue
		}
		st.Add(rdf.Triple{S: subj, P: rdf.NewIRI(style.pred(a.Key)), O: obj})
		if a.Key == "name" && style.UseRDFSLabel {
			st.Add(rdf.Triple{S: subj, P: rdf.NewIRI(rdf.RDFSLabel), O: obj})
		}
	}
	return iri
}

// renderAttr converts a canonical attribute to an RDF object term with
// noise applied.
func renderAttr(r *rand.Rand, a Attr, n Noise) (rdf.Term, bool) {
	switch a.Kind {
	case AttrName:
		s := a.Str
		switch {
		case r.Float64() < n.Invert:
			s = invertName(s)
		case r.Float64() < n.Abbrev:
			s = abbreviate(s)
		}
		if r.Float64() < n.Typo {
			s = typo(r, s)
		}
		return rdf.NewString(s), true
	case AttrString:
		s := a.Str
		if r.Float64() < n.WordEdit {
			s = wordEdit(r, s)
		}
		if r.Float64() < n.Typo {
			s = typo(r, s)
		}
		return rdf.NewString(s), true
	case AttrInt:
		v := a.Int
		if n.Jitter > 0 && r.Float64() < 0.5 {
			v += int64(float64(v) * n.Jitter * (r.Float64()*2 - 1))
		}
		return rdf.NewInt(v), true
	case AttrFloat:
		v := a.Flt
		if n.Jitter > 0 {
			v += v * n.Jitter * (r.Float64()*2 - 1)
		}
		return rdf.NewFloat(float64(int(v*100)) / 100), true
	case AttrDate:
		if r.Float64() < n.YearOnly {
			return rdf.NewInt(int64(a.Date.Year())), true
		}
		d := a.Date
		if n.Jitter > 0 && r.Float64() < n.Jitter {
			d = d.AddDate(0, 0, r.Intn(3)-1)
		}
		return rdf.NewDate(d), true
	default:
		return rdf.Term{}, false
	}
}

// wordEdit restyles a string value at the word level.
func wordEdit(r *rand.Rand, s string) string {
	parts := strings.Fields(s)
	if len(parts) >= 2 {
		if r.Intn(2) == 0 {
			return strings.Join(parts[:len(parts)-1], " ")
		}
		return strings.Join(parts, " ") + " Group"
	}
	qualifiers := []string{" City", " Region", " proper"}
	return s + qualifiers[r.Intn(len(qualifiers))]
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

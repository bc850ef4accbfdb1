package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"alex/internal/datagen"
	"alex/internal/feature"
	"alex/internal/linkset"
	"alex/internal/rdf"
)

// The engine against the reference model (reference_test.go): both are
// driven through the same episodes over the same feature spaces, and after
// every step each partition's learned state must be identical — floats
// bit for bit.

// refEngine runs one refPartition beside each of an engine's partitions,
// over the engine's own feature spaces and subject routing, seeded as New
// seeds the partitions.
type refEngine struct {
	e     *Engine
	parts []*refPartition
}

// newRefEngine must be called on a fresh engine, before anything has been
// learned.
func newRefEngine(e *Engine) *refEngine {
	r := &refEngine{e: e}
	for i, p := range e.partitions {
		r.parts = append(r.parts, newRefPartition(i, p.space, e.cfg, e.cfg.Seed+int64(i)*7919))
	}
	return r
}

func (r *refEngine) setInitialLinks(links []linkset.Link) {
	for _, l := range links {
		if pi, ok := r.e.subjectPartition[l.Left]; ok {
			r.parts[pi].addCandidate(l)
		}
	}
	for _, p := range r.parts {
		p.fold()
	}
}

func (r *refEngine) runEpisode(judge func(linkset.Link) bool) {
	share := r.e.cfg.EpisodeSize / len(r.parts)
	if share == 0 {
		share = 1
	}
	for _, p := range r.parts {
		p.runEpisode(share, judge)
	}
}

func (r *refEngine) applyEpisode(items []Feedback) {
	per := make([][]Feedback, len(r.parts))
	for _, it := range items {
		if pi, ok := r.e.subjectPartition[it.Link.Left]; ok {
			per[pi] = append(per[pi], it)
		}
	}
	for i, p := range r.parts {
		p.applyEpisode(per[i])
	}
}

// learned is everything a partition has learned, in one canonical order:
// what the two sides must agree on after every step. Sums are float bits.
type learned struct {
	Candidates, Blacklist, Confirmed []linkset.Link
	NegByLink                        []linkCount
	RolledBack, Greedy               []saRow
	Q                                []qRow
	FQ                               []fqRow
	Episodes, Rollbacks              int
	Converged                        bool
	// The last episode's counters.
	Adds, Removes, Changed, Pos, Neg, Dropped int
}

type linkCount struct {
	L linkset.Link
	N int
}

type saRow struct {
	S linkset.Link
	A feature.Feature
}

type qRow struct {
	S     linkset.Link
	A     feature.Feature
	Sum   uint64
	Count int
}

type fqRow struct {
	A      feature.Feature
	Bucket int
	Sum    uint64
	Count  int
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func cmpFeature(a, b feature.Feature) int {
	return cmp.Or(cmp.Compare(a.P1, b.P1), cmp.Compare(a.P2, b.P2))
}

func cmpSARow(a, b saRow) int {
	return cmp.Or(linkset.Compare(a.S, b.S), cmpFeature(a.A, b.A))
}

// sort puts every list in canonical order (and an empty one at nil).
func (st *learned) sort() {
	st.Candidates, st.Blacklist, st.Confirmed = nilIfEmpty(st.Candidates), nilIfEmpty(st.Blacklist), nilIfEmpty(st.Confirmed)
	st.NegByLink, st.RolledBack, st.Greedy = nilIfEmpty(st.NegByLink), nilIfEmpty(st.RolledBack), nilIfEmpty(st.Greedy)
	st.Q, st.FQ = nilIfEmpty(st.Q), nilIfEmpty(st.FQ)
	slices.SortFunc(st.Blacklist, linkset.Compare)
	slices.SortFunc(st.Confirmed, linkset.Compare)
	slices.SortFunc(st.NegByLink, func(a, b linkCount) int { return linkset.Compare(a.L, b.L) })
	slices.SortFunc(st.RolledBack, cmpSARow)
	slices.SortFunc(st.Greedy, cmpSARow)
	slices.SortFunc(st.Q, func(a, b qRow) int {
		return cmp.Or(linkset.Compare(a.S, b.S), cmpFeature(a.A, b.A))
	})
	slices.SortFunc(st.FQ, func(a, b fqRow) int {
		return cmp.Or(cmpFeature(a.A, b.A), cmp.Compare(a.Bucket, b.Bucket))
	})
}

func (p *refPartition) learned() learned {
	st := learned{
		Episodes: p.episodes, Rollbacks: p.rollbacks, Converged: p.converged,
		Adds: p.episodeAdds, Removes: p.episodeRemoves, Changed: p.episodeChanged,
		Pos: p.posFeedback, Neg: p.negFeedback, Dropped: p.droppedConverged,
	}
	for l := range p.candidates {
		st.Candidates = append(st.Candidates, l)
	}
	slices.SortFunc(st.Candidates, linkset.Compare)
	for l := range p.blacklist {
		st.Blacklist = append(st.Blacklist, l)
	}
	for l := range p.posConfirmed {
		st.Confirmed = append(st.Confirmed, l)
	}
	for l, n := range p.negByLink {
		st.NegByLink = append(st.NegByLink, linkCount{l, n})
	}
	for sa := range p.rolledBack {
		st.RolledBack = append(st.RolledBack, saRow{sa.s, sa.a})
	}
	for s, a := range p.policy.GreedyEntries() {
		st.Greedy = append(st.Greedy, saRow{s, a})
	}
	for _, e := range p.q.Entries() {
		st.Q = append(st.Q, qRow{e.State, e.Action, math.Float64bits(e.Sum), e.Count})
	}
	for _, e := range p.fq.Entries() {
		st.FQ = append(st.FQ, fqRow{e.Action.f, e.Action.bucket, math.Float64bits(e.Sum), e.Count})
	}
	st.sort()
	return st
}

// learned reads the engine's partition; its candidates are the published
// view, which every entry point folds before it returns.
func (p *partition) learned() learned {
	st := learned{
		Candidates: slices.Clone(p.view),
		Episodes:   p.episodes, Rollbacks: p.rollbacks, Converged: p.converged,
		Adds: p.episodeAdds, Removes: p.episodeRemoves, Changed: p.episodeChanged,
		Pos: p.posFeedback, Neg: p.negFeedback, Dropped: p.droppedConverged,
	}
	for id, ls := range p.ls {
		l := p.space.Link(uint32(id))
		if ls.flags&isBlacklisted != 0 {
			st.Blacklist = append(st.Blacklist, l)
		}
		if ls.flags&isConfirmed != 0 {
			st.Confirmed = append(st.Confirmed, l)
		}
		if ls.negs > 0 {
			st.NegByLink = append(st.NegByLink, linkCount{l, ls.negs})
		}
	}
	for _, sa := range p.sas {
		if sa.rolledBack {
			st.RolledBack = append(st.RolledBack, saRow{p.space.Link(sa.s), sa.a})
		}
	}
	p.policy.Each(func(s uint32, a feature.Feature) { st.Greedy = append(st.Greedy, saRow{p.space.Link(s), a}) })
	p.q.Each(func(id uint32, sum float64, count int) {
		sa := p.sas[id]
		st.Q = append(st.Q, qRow{p.space.Link(sa.s), sa.a, math.Float64bits(sum), count})
	})
	p.fq.Each(func(id uint32, sum float64, count int) {
		k := p.fqByID[id]
		st.FQ = append(st.FQ, fqRow{k.f, k.bucket, math.Float64bits(sum), count})
	})
	st.sort()
	return st
}

// diffLearned names the fields on which two states differ.
func diffLearned(got, want learned) string {
	var out string
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i).Interface(), wv.Field(i).Interface()
		if reflect.DeepEqual(g, w) {
			continue
		}
		name := gv.Type().Field(i).Name
		if gv.Field(i).Kind() == reflect.Slice {
			out += fmt.Sprintf("\n  %s: engine has %d entries, reference %d", name, gv.Field(i).Len(), wv.Field(i).Len())
			for j := 0; j < min(gv.Field(i).Len(), wv.Field(i).Len()); j++ {
				if a, b := gv.Field(i).Index(j).Interface(), wv.Field(i).Index(j).Interface(); !reflect.DeepEqual(a, b) {
					out += fmt.Sprintf("; first difference at %d: %+v vs %+v", j, a, b)
					break
				}
			}
			continue
		}
		out += fmt.Sprintf("\n  %s: engine %v, reference %v", name, g, w)
	}
	return out
}

// diffRun drives an engine and its reference through one script of
// steps, comparing them after each.
type diffRun struct {
	t    testing.TB
	pair *datagen.Pair
	e    *Engine
	ref  *refEngine
	rng  *rand.Rand
	// pool is what users judge besides current candidates: truth links,
	// space pairs, and pairs no partition's space holds.
	pool      []linkset.Link
	salt      uint64
	newcomers int
	// arrivals counts new DS2 subjects, edits the DS2 attributes added to
	// existing ones.
	arrivals, edits int
}

func newDiffRun(t testing.TB, pair *datagen.Pair, cfg Config, seed int64) *diffRun {
	e := New(pair.DS1, pair.DS2, cfg)
	d := &diffRun{t: t, pair: pair, e: e, ref: newRefEngine(e), rng: rand.New(rand.NewSource(seed)), salt: uint64(seed)}
	d.pool = append(d.pool, pair.Truth.Links()...)
	for _, p := range e.partitions {
		d.pool = append(d.pool, p.space.Links()...)
	}
	subjects := pair.DS1.Subjects()
	objects := pair.DS2.Subjects()
	for i := 0; i < 20 && len(subjects) > 0 && len(objects) > 0; i++ {
		d.pool = append(d.pool, linkset.Link{Left: subjects[d.rng.Intn(len(subjects))], Right: objects[d.rng.Intn(len(objects))]})
	}
	d.pool = append(d.pool, linkset.Link{Left: rdf.TermID(1 << 30), Right: 1}) // unroutable
	return d
}

// compare fails the test unless every partition agrees with its
// reference.
func (d *diffRun) compare(when string) {
	d.t.Helper()
	for i, p := range d.e.partitions {
		got, want := p.learned(), d.ref.parts[i].learned()
		if !reflect.DeepEqual(got, want) {
			d.t.Fatalf("%s: partition %d differs from the reference:%s", when, i, diffLearned(got, want))
		}
	}
}

// judge is a noisy user that both sides can ask in any order and from any
// goroutine: wrongPct percent of links, picked by a hash, get the wrong
// verdict.
func (d *diffRun) judge(wrongPct uint64) func(linkset.Link) bool {
	return func(l linkset.Link) bool {
		v := d.pair.Truth.Contains(l)
		if mix(uint64(l.Left)<<32|uint64(l.Right), d.salt)%100 < wrongPct {
			v = !v
		}
		return v
	}
}

func mix(x, salt uint64) uint64 {
	x ^= salt + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// anyLink draws a link a user might judge: a current candidate, or one of
// the pool.
func (d *diffRun) anyLink() linkset.Link {
	p := d.e.partitions[d.rng.Intn(len(d.e.partitions))]
	if d.rng.Intn(2) == 0 && len(p.view) > 0 {
		return p.view[d.rng.Intn(len(p.view))]
	}
	return d.pool[d.rng.Intn(len(d.pool))]
}

// batch is what real users send in one episode: 10–30 % wrong verdicts,
// repeats, contradictory verdicts on one link, links that are no longer
// (or never were) candidates.
func (d *diffRun) batch() []Feedback {
	wrong := 0.1 + 0.2*d.rng.Float64()
	var items []Feedback
	for n := 1 + d.rng.Intn(40); n > 0; n-- {
		l := d.anyLink()
		v := d.pair.Truth.Contains(l)
		if d.rng.Float64() < wrong {
			v = !v
		}
		items = append(items, Feedback{Link: l, Approved: v})
		switch d.rng.Intn(10) {
		case 0:
			items = append(items, Feedback{Link: l, Approved: !v})
		case 1:
			items = append(items, items[d.rng.Intn(len(items))])
		}
	}
	return items
}

// upsert grows DS1 while the engine runs, and SyncStores finds the change:
// a new subject copying an existing one's attributes (so it pairs with the
// same DS2 entities), or a new attribute on an existing subject (so its
// pairs are rescored).
func (d *diffRun) upsert() {
	subjects := d.pair.DS1.Subjects()
	src, ok := d.pair.DS1.Entity(subjects[d.rng.Intn(len(subjects))])
	if !ok {
		return
	}
	subj := src.Subject
	if d.rng.Intn(2) == 0 {
		subj = d.pair.Dict.Intern(rdf.NewIRI(fmt.Sprintf("http://equivalence.test/e%d", d.newcomers)))
		d.newcomers++
		for i := range src.Preds {
			d.pair.DS1.AddID(rdf.TripleID{S: subj, P: src.Preds[i], O: src.Objs[i]})
		}
	} else {
		d.pair.DS1.Add(rdf.Triple{
			S: d.pair.Dict.Term(subj),
			P: rdf.NewIRI(rdf.RDFSLabel),
			O: rdf.NewString(fmt.Sprintf("alias %d", d.rng.Intn(50))),
		})
	}
	d.e.SyncStores()
}

// upsertDS2 grows DS2 while the engine runs, taking turns: a new subject
// copying an existing one's attributes, then a new attribute on an
// existing subject. SyncStores finds either, and every partition
// subject sharing a blocking token with the DS2 subject is rescored: its
// pairs are dropped and scored again while the partitions hold state for
// them, and pairs appear that were outside links before.
func (d *diffRun) upsertDS2() {
	objects := d.pair.DS2.Subjects()
	src, ok := d.pair.DS2.Entity(objects[d.rng.Intn(len(objects))])
	if !ok {
		return
	}
	if d.arrivals <= d.edits {
		subj := d.pair.Dict.Intern(rdf.NewIRI(fmt.Sprintf("http://equivalence.test/r%d", d.arrivals)))
		d.arrivals++
		for i := range src.Preds {
			d.pair.DS2.AddID(rdf.TripleID{S: subj, P: src.Preds[i], O: src.Objs[i]})
		}
	} else {
		d.edits++
		d.pair.DS2.Add(rdf.Triple{
			S: d.pair.Dict.Term(src.Subject),
			P: rdf.NewIRI(rdf.RDFSLabel),
			O: rdf.NewString(fmt.Sprintf("alias %d", d.rng.Intn(50))),
		})
	}
	d.e.SyncStores()
}

// step applies one operation to both sides and compares them.
func (d *diffRun) step(i int, op byte) {
	d.t.Helper()
	var what string
	switch op % 7 {
	case 0:
		what = "RunEpisode"
		judge := d.judge(uint64(d.rng.Intn(31)))
		d.e.RunEpisode(judge)
		d.ref.runEpisode(judge)
	case 1, 2:
		what = "ApplyEpisode"
		items := d.batch()
		d.e.ApplyEpisode(items)
		d.ref.applyEpisode(items)
	case 3:
		what = "DS1 upsert"
		d.upsert()
	case 4:
		// Strict convergence freezes a partition for good; thaw both sides
		// so the script keeps learning.
		what = "thaw"
		for j, p := range d.e.partitions {
			p.converged = false
			d.ref.parts[j].converged = false
		}
	case 5:
		what = "SetInitialLinks"
		links := make([]linkset.Link, d.rng.Intn(30))
		for j := range links {
			links[j] = d.anyLink()
		}
		d.e.SetInitialLinks(links)
		d.ref.setInitialLinks(links)
	case 6:
		what = "DS2 upsert"
		d.upsertDS2()
	}
	d.compare(fmt.Sprintf("step %d (%s)", i, what))
}

// TestEpisodeMatchesReference compares the engine with the reference
// model at one and two workers: over link_batch's data sets, run to
// convergence with a perfect oracle as the benchmark runs them, and over
// scripts of explicit batches with wrong, repeated and contradictory
// verdicts, sampled episodes with a noisy judge, and live upserts on both
// sides.
func TestEpisodeMatchesReference(t *testing.T) {
	seeds := []int64{1000, 1001, 1002, 1003}
	steps := 400
	if testing.Short() {
		seeds, steps = seeds[:1], 40
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			for _, seed := range seeds {
				pair := datagen.GeneratePair(datagen.DBpediaNYTimes(0.2, seed))
				cfg := Defaults()
				cfg.Partitions = 8
				cfg.Workers = workers
				cfg.Seed = seed
				d := newDiffRun(t, pair, cfg, seed)
				init := initialLinks(pair)
				d.e.SetInitialLinks(init)
				d.ref.setInitialLinks(init)
				d.compare(fmt.Sprintf("seed %d initial links", seed))
				judge := SerialJudge(d.judge(0))
				for !d.e.Converged() && d.e.Episode() < cfg.MaxEpisodes {
					d.e.RunEpisode(judge)
					d.ref.runEpisode(judge)
					d.compare(fmt.Sprintf("seed %d episode %d", seed, d.e.Episode()))
				}
			}

			pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.35, 25))
			cfg := smallConfig(25)
			cfg.Partitions = 3
			cfg.MaxEpisodes = 1 << 20
			cfg.Workers = workers
			d := newDiffRun(t, pair, cfg, 25)
			d.e.SetInitialLinks(initialLinks(pair))
			d.ref.setInitialLinks(initialLinks(pair))
			for i := 0; i < steps; i++ {
				d.step(i, byte(d.rng.Intn(7)))
			}
			var rollbacks, blacklisted int
			for _, p := range d.ref.parts {
				rollbacks += p.rollbacks
				blacklisted += len(p.blacklist)
			}
			if rollbacks == 0 || blacklisted == 0 || d.newcomers == 0 || d.arrivals == 0 || d.edits == 0 {
				t.Errorf("coverage: %d rollbacks, %d blacklisted, %d newcomers, %d DS2 arrivals, %d DS2 edits; want all non-zero",
					rollbacks, blacklisted, d.newcomers, d.arrivals, d.edits)
			}
		})
	}
}

// FuzzEpisodeEquivalence runs a fuzzed script of steps (see diffRun.step)
// against a small engine and its reference.
func FuzzEpisodeEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 1, 3, 0, 2, 4, 1, 3, 0, 5, 1})
	f.Add(int64(2), []byte{5, 1, 1, 1, 4, 1, 1, 0, 0, 3, 3, 2})
	f.Add(int64(3), []byte{3, 3, 0, 4, 0, 4, 2, 2, 5, 0, 1})
	f.Add(int64(4), []byte{1, 1, 6, 1, 6, 2, 0, 6, 1, 3, 6, 1, 2, 6, 1})
	f.Add(int64(1<<16|5), []byte{5, 1, 6, 6, 1, 2, 4, 6, 0, 6, 1, 1, 6, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.15, 1+seed&3))
		cfg := smallConfig(1 + seed&0xffff)
		cfg.Partitions = 1 + int(seed>>16&3)
		cfg.MaxEpisodes = 1 << 20
		cfg.Workers = 1 + int(seed>>18&1)
		d := newDiffRun(t, pair, cfg, seed)
		for i, op := range ops {
			d.step(i, op)
		}
	})
}

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current engine")

// TestSaveStateGolden freezes SaveState's bytes: an engine over
// NBADBpediaNYTimes(0.25, 5), seeded with PARIS's links and run for ten
// episodes against a judge that errs on 15 % of links, must save the
// recorded bytes, at one worker and at two.
func TestSaveStateGolden(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintf(&got, "# SHA-256 of Engine.SaveState after 10 episodes over NBADBpediaNYTimes(0.25, 5). Regenerate with: go test ./internal/core -run TestSaveStateGolden -update\n")
	for _, workers := range []int{1, 2} {
		pair := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.25, 5))
		cfg := smallConfig(5)
		cfg.Workers = workers
		cfg.MaxEpisodes = 1 << 20
		d := newDiffRun(t, pair, cfg, 5)
		d.e.SetInitialLinks(initialLinks(pair))
		for i := 0; i < 10; i++ {
			d.e.RunEpisode(d.judge(15))
		}
		var buf bytes.Buffer
		if err := d.e.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "workers=%d bytes=%d sha256=%x\n", workers, buf.Len(), sha256.Sum256(buf.Bytes()))
	}
	path := filepath.Join("testdata", "savestate.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("savestate.golden differs:\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}

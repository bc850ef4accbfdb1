package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"alex/internal/datagen"
	"alex/internal/feedback"
)

func TestSaveLoadStateRoundTrip(t *testing.T) {
	p := testPair(53)
	e := New(p.DS1, p.DS2, smallConfig(53))
	e.SetInitialLinks(initialLinks(p))
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(53)))
	for i := 0; i < 4; i++ {
		e.RunEpisode(oracle.JudgeFunc())
	}
	wantLinks := e.Candidates().Links()
	wantEpisode := e.Episode()

	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh engine over the SAME generated pair (same seed => same data).
	p2 := testPair(53)
	e2 := New(p2.DS1, p2.DS2, smallConfig(53))
	if err := e2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	gotLinks := e2.Candidates().Links()
	if len(gotLinks) != len(wantLinks) {
		t.Fatalf("restored %d links, want %d", len(gotLinks), len(wantLinks))
	}
	for i := range wantLinks {
		// Compare by materialized IRIs: the dictionaries are distinct.
		w := p.Dict.Term(wantLinks[i].Left).Value + "|" + p.Dict.Term(wantLinks[i].Right).Value
		g := p2.Dict.Term(gotLinks[i].Left).Value + "|" + p2.Dict.Term(gotLinks[i].Right).Value
		if w != g {
			t.Fatalf("link %d: %s vs %s", i, g, w)
		}
	}
	if e2.Episode() != wantEpisode {
		t.Errorf("episode = %d, want %d", e2.Episode(), wantEpisode)
	}
	for i := 0; i < e.Partitions(); i++ {
		a := e.PartitionPolicyStats(i)
		b := e2.PartitionPolicyStats(i)
		if a.Candidates != b.Candidates || a.Blacklisted != b.Blacklisted ||
			a.StateActionPairs != b.StateActionPairs || a.Episodes != b.Episodes ||
			a.Converged != b.Converged || a.States != b.States {
			t.Errorf("partition %d stats differ: %+v vs %+v", i, b, a)
		}
	}
}

func TestSaveStateDeterministicBytes(t *testing.T) {
	// Regression: the wire slices are collected from maps, so without the
	// explicit sorts in SaveState two snapshots of the same state
	// would differ byte-for-byte run to run.
	p := testPair(53)
	e := New(p.DS1, p.DS2, smallConfig(53))
	e.SetInitialLinks(initialLinks(p))
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(53)))
	for i := 0; i < 3; i++ {
		e.RunEpisode(oracle.JudgeFunc())
	}
	var a, b bytes.Buffer
	if err := e.SaveState(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveState(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two SaveState snapshots of the same engine differ byte-for-byte")
	}
}

func TestLoadedEngineContinuesLearning(t *testing.T) {
	p := testPair(59)
	e := New(p.DS1, p.DS2, smallConfig(59))
	e.SetInitialLinks(initialLinks(p))
	oracle := feedback.NewOracle(p.Truth, 0, rand.New(rand.NewSource(59)))
	e.RunEpisode(oracle.JudgeFunc())
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	p2 := testPair(59)
	e2 := New(p2.DS1, p2.DS2, smallConfig(59))
	if err := e2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	oracle2 := feedback.NewOracle(p2.Truth, 0, rand.New(rand.NewSource(60)))
	st := e2.RunEpisode(oracle2.JudgeFunc())
	if st.Feedback == 0 {
		t.Error("restored engine processed no feedback")
	}
	// The restored blacklist must still block re-adding.
	for i := 0; i < e2.Partitions(); i++ {
		stats := e2.PartitionPolicyStats(i)
		if stats.Blacklisted > 0 && stats.Candidates == 0 {
			continue
		}
	}
}

func TestLoadStateErrors(t *testing.T) {
	p := testPair(61)
	e := New(p.DS1, p.DS2, smallConfig(61))
	if err := e.LoadState(strings.NewReader("garbage")); err == nil {
		t.Error("garbage state loaded")
	}
	// Partition-count mismatch.
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(61)
	cfg.Partitions = 3
	e3 := New(p.DS1, p.DS2, cfg)
	if err := e3.LoadState(&buf); err == nil {
		t.Error("partition mismatch not rejected")
	}
}

func TestLoadStateSkipsUnknownIRIs(t *testing.T) {
	p := testPair(67)
	e := New(p.DS1, p.DS2, smallConfig(67))
	e.SetInitialLinks(initialLinks(p))
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore into an engine over a DIFFERENT domain (drug entities, whose
	// IRIs share nothing with the NBA pair): every IRI misses, so the
	// state loads cleanly but contributes nothing.
	q := datagen.GeneratePair(datagen.DBpediaDrugbank(0.3, 999))
	e2 := New(q.DS1, q.DS2, smallConfig(67))
	if err := e2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if got := e2.Candidates().Len(); got != 0 {
		t.Errorf("unknown-IRI candidates restored: %d", got)
	}
}

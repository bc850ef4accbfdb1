package faultinject

import (
	"context"
	"errors"
	"testing"

	"alex/internal/rdf"
	"alex/internal/sparql"
)

type nullTarget struct{ name string }

func (t nullTarget) Name() string { return t.name }
func (t nullTarget) HasPredicate(context.Context, rdf.Term) (bool, error) {
	return false, nil
}
func (t nullTarget) PredicateCount(context.Context, rdf.Term) (int, error) { return 0, nil }
func (t nullTarget) Size(context.Context) (int, error)                     { return 0, nil }
func (t nullTarget) Match(_ context.Context, _ *sparql.IDSpace, _, _, _ rdf.TermID, dst []rdf.TripleID) ([]rdf.TripleID, error) {
	return dst, nil
}

func TestScheduleDownAt(t *testing.T) {
	s := NewSchedule(
		Window{Source: "a", From: 2, To: 5},
		Window{Source: "b", From: 4, To: 6},
		Window{Source: "a", From: 8, To: 8}, // empty, dropped
	)
	cases := []struct {
		source string
		tick   int
		down   bool
	}{
		{"a", 1, false}, {"a", 2, true}, {"a", 4, true}, {"a", 5, false},
		{"b", 3, false}, {"b", 4, true}, {"b", 5, true}, {"b", 6, false},
		{"c", 4, false},
		{"a", 8, false},
	}
	for _, c := range cases {
		if got := s.DownAt(c.source, c.tick); got != c.down {
			t.Errorf("DownAt(%s, %d) = %v, want %v", c.source, c.tick, got, c.down)
		}
	}
}

func TestScheduleTransitions(t *testing.T) {
	s := NewSchedule(
		Window{Source: "b", From: 0, To: 2},
		Window{Source: "a", From: 0, To: 2},
	)
	at0 := s.TransitionsAt(0)
	if len(at0) != 2 || at0[0] != (Transition{"a", true}) || at0[1] != (Transition{"b", true}) {
		t.Fatalf("TransitionsAt(0) = %+v, want a,b down in name order", at0)
	}
	if trs := s.TransitionsAt(1); len(trs) != 0 {
		t.Fatalf("TransitionsAt(1) = %+v, want none", trs)
	}
	at2 := s.TransitionsAt(2)
	if len(at2) != 2 || at2[0].Down || at2[1].Down {
		t.Fatalf("TransitionsAt(2) = %+v, want a,b up", at2)
	}
}

func TestScheduleApplyDrivesSources(t *testing.T) {
	src := Wrap(nullTarget{name: "flaky"}, Config{})
	s := NewSchedule(Window{Source: "flaky", From: 1, To: 3})
	ctx := context.Background()

	for tick, wantDown := range []bool{false, true, true, false} {
		s.Apply(tick, map[string]*Source{"flaky": src})
		if got := src.Down(); got != wantDown {
			t.Fatalf("tick %d: Down() = %v, want %v", tick, got, wantDown)
		}
		_, err := src.Match(ctx, nil, 0, 0, 0, nil)
		if wantDown && !errors.Is(err, ErrInjected) {
			t.Fatalf("tick %d: Match err = %v, want injected outage", tick, err)
		}
		if !wantDown && err != nil {
			t.Fatalf("tick %d: Match err = %v, want nil", tick, err)
		}
	}
}

func TestNilScheduleIsInert(t *testing.T) {
	var s *Schedule
	if s.DownAt("a", 0) || len(s.TransitionsAt(0)) != 0 || len(s.Windows()) != 0 {
		t.Error("nil schedule must report nothing down and no transitions")
	}
}

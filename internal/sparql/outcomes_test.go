package sparql

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseOutcomesGoldenPath pins what Parse does on broken text: one digest
// per equivalence-corpus query over the outcome of every byte prefix of it
// and of every insertion of one lexer-hostile character. Prefixes end the
// token stream early at each point; the inserted characters make the lexer
// fail ($ & @ " ' \) or change how what follows lexes (% ^ #). An outcome
// is the error text, or the whole parsed algebra. Regenerate with
// `go test ./internal/sparql -run TestParseOutcomesGolden -update` only
// when a parse result or an error message is meant to change.
const parseOutcomesGoldenPath = "testdata/parse_outcomes.golden"

const insertedBytes = `$&@"'%\^#`

// parseOutcome renders one Parse result.
func parseOutcome(in string) string {
	q, err := Parse(in)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("query: %s %#v", queryHead(q), *q)
}

// queryHead renders the head the outcome digests record for every query
// form: SELECT [DISTINCT] vars WHERE { ... }.
func queryHead(q *Query) string {
	vars := "*"
	if len(q.Vars) > 0 {
		vars = "?" + strings.Join(q.Vars, " ?")
	}
	distinct := ""
	if q.Distinct {
		distinct = "DISTINCT "
	}
	return "SELECT " + distinct + vars + " WHERE { ... }"
}

func TestParseOutcomesGolden(t *testing.T) {
	var b strings.Builder
	for _, query := range loadLines(t, filepath.Join("testdata", "equiv_corpus.rq")) {
		h := sha256.New()
		for i := 0; i <= len(query); i++ {
			fmt.Fprintf(h, "%s\n", parseOutcome(query[:i]))
			for j := 0; j < len(insertedBytes); j++ {
				fmt.Fprintf(h, "%s\n", parseOutcome(query[:i]+insertedBytes[j:j+1]+query[i:]))
			}
		}
		fmt.Fprintf(&b, "%x %s\n", h.Sum(nil)[:12], query)
	}
	if *updateGolden {
		if err := os.WriteFile(parseOutcomesGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(parseOutcomesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("parse outcomes differ from %s (rerun with -update only for an intended change):\n%s", parseOutcomesGoldenPath, firstDiff(got, string(want)))
	}
}

// Command fedsparql runs federated SPARQL queries over N-Triples files,
// bridging entities through an owl:sameAs link file — the substrate ALEX
// assumes (paper §3.2). Each answer is printed with its link provenance:
// the sameAs links that produced it.
//
// Usage:
//
//	fedsparql -data dbpedia.nt -data nytimes.nt -links truth.nt \
//	    -query 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 5'
//
// With no -query, queries are read from stdin, one per line. With -trace,
// each query's execution span tree (per-pattern timings, source names,
// join cardinalities, sameAs rewrites) is printed to stderr, followed by
// a JSON metrics snapshot on exit.
//
// Remote endpoints (-remote) are queried under a fault-tolerance policy:
// -timeout bounds each call to one (calls into the in-process -data stores
// cannot block and are not timed), -retries retries transient failures
// with exponential backoff, and -partial-ok degrades gracefully — when an
// endpoint stays unavailable past its retry budget the query still
// answers, flagged with the skipped sources, instead of failing.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"alex/internal/endpoint"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so tests can drive the
// whole command in-process. It returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedsparql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var dataFiles, remotes multiFlag
	fs.Var(&dataFiles, "data", "N-Triples or Turtle file (repeatable)")
	fs.Var(&remotes, "remote", "remote SPARQL endpoint URL, e.g. http://host:8181/sparql (repeatable; see cmd/sparqld)")
	linksFile := fs.String("links", "", "owl:sameAs N-Triples link file")
	query := fs.String("query", "", "SPARQL query (default: read from stdin)")
	trace := fs.Bool("trace", false, "print each query's execution span tree and a final metrics snapshot to stderr")
	timeout := fs.Duration("timeout", 10*time.Second, "timeout of each call to a source that can wait (-remote endpoints); in-process -data stores cannot, their queries are bounded by the caller's context (0 disables)")
	retries := fs.Int("retries", 2, "retries per failed source call")
	partialOK := fs.Bool("partial-ok", false, "tolerate unavailable sources: answer with partial results instead of failing")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if len(dataFiles) == 0 && len(remotes) == 0 {
		fmt.Fprintln(stderr, "fedsparql: at least one -data file or -remote endpoint is required")
		return 2
	}
	var reg *obs.Registry
	if *trace {
		reg = obs.NewRegistry()
		defer printMetrics(reg, stderr)
	}

	dict := rdf.NewDict()
	var stores []*store.Store
	for _, path := range dataFiles {
		st, err := store.NewFromFile(dict, path, store.LoadOptions{Obs: reg})
		if err != nil {
			fmt.Fprintln(stderr, "fedsparql:", err)
			return 1
		}
		fmt.Fprintf(stderr, "loaded %s\n", st.Stats())
		stores = append(stores, st)
	}
	federation := fed.New(dict, stores...)
	for i, remoteURL := range remotes {
		name := fmt.Sprintf("remote%d", i+1)
		federation.AddSource(fed.RemoteSource(endpoint.NewClient(name, remoteURL, nil)))
		fmt.Fprintf(stderr, "added remote endpoint %s = %s\n", name, remoteURL)
	}
	if *linksFile != "" {
		links, err := linkset.LoadSameAs(dict, *linksFile)
		if err != nil {
			fmt.Fprintln(stderr, "fedsparql:", err)
			return 1
		}
		fmt.Fprintf(stderr, "loaded %d sameAs links\n", links.Len())
		federation.SetLinks(links)
	}

	res := fed.DefaultResilience()
	res.Timeout = *timeout
	res.MaxRetries = *retries
	res.PartialResults = *partialOK
	federation.SetResilience(res)

	if reg != nil {
		federation.SetObserver(reg)
	}

	if *query != "" {
		if err := runQuery(federation, *query, *trace, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "fedsparql:", err)
			return 1
		}
		return 0
	}
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" {
			continue
		}
		if err := runQuery(federation, q, *trace, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "fedsparql:", err)
		}
	}
	return 0
}

// printMetrics dumps the final metrics snapshot as indented JSON.
func printMetrics(reg *obs.Registry, stderr io.Writer) {
	raw, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return
	}
	fmt.Fprintf(stderr, "metrics:\n%s\n", raw)
}

func runQuery(federation *fed.Federation, query string, trace bool, stdout, stderr io.Writer) error {
	q, err := sparql.Parse(query)
	if err != nil {
		return err
	}
	var tr *obs.Trace
	if trace {
		tr = obs.NewTrace("query")
	}
	res, err := federation.Eval(obs.WithTrace(context.Background(), tr), sparql.Compile(q), sparql.EvalOptions{})
	if tr != nil {
		// Printed on failure too: the recorded prefix shows how far it got.
		fmt.Fprintln(stderr, tr.String())
	}
	if err != nil {
		return err
	}
	if res.Partial() {
		for _, sk := range res.Skipped {
			fmt.Fprintf(stderr, "warning: source %s skipped (%s); results may be incomplete\n", sk.Source, sk.Reason)
		}
	}
	if res.Triples != nil {
		w := rdf.NewWriter(stdout)
		for _, t := range res.Triples {
			if err := w.Write(t); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d triple(s)\n", len(res.Triples))
		return nil
	}
	for i, a := range res.Answers {
		var parts []string
		for _, v := range res.Vars {
			if t, ok := a.Binding[v]; ok {
				parts = append(parts, fmt.Sprintf("?%s=%s", v, t))
			}
		}
		prov := ""
		if len(a.Used) > 0 {
			prov = fmt.Sprintf("  [via %d sameAs link(s)]", len(a.Used))
		}
		fmt.Fprintf(stdout, "%3d. %s%s\n", i+1, strings.Join(parts, "  "), prov)
	}
	fmt.Fprintf(stdout, "%d answer(s)\n", len(res.Answers))
	return nil
}

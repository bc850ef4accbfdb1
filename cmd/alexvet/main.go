// Command alexvet runs the repository's custom static-analysis suite
// (internal/lint) over a module: obsnames, ctxflow, nodeterminism,
// errwrap, nopanic and lockdiscipline, each one pass over one package.
// It prints one file:line:col diagnostic per line and exits 1 when any
// survives //lint:ignore suppression, 2 on usage or load errors, so CI
// can fail the build on findings.
//
// Usage:
//
//	alexvet [-list] [-analyzers a,b] [dir]
//
// dir defaults to the current directory and must be a module root (the
// trailing /... of a package pattern is accepted and ignored, so
// `alexvet ./...` works as expected).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"alex/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alexvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dir := "."
	if fs.NArg() > 0 {
		dir = fs.Arg(0)
	}
	// Accept package-pattern spelling: ./... means the whole module.
	dir = strings.TrimSuffix(dir, "...")
	dir = strings.TrimSuffix(dir, "/")
	if dir == "" {
		dir = "."
	}
	module, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		fmt.Fprintf(stderr, "alexvet: %v\n", err)
		return 2
	}
	analyzers := lint.DefaultAnalyzers(module)
	if *only != "" {
		analyzers, err = filterAnalyzers(analyzers, *only)
		if err != nil {
			fmt.Fprintf(stderr, "alexvet: %v\n", err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	prog, err := lint.Load(lint.Config{Dir: dir, ModulePath: module})
	if err != nil {
		fmt.Fprintf(stderr, "alexvet: %v\n", err)
		return 2
	}
	diags := lint.RelativeTo(lint.Run(prog, analyzers), dir)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// filterAnalyzers keeps the named subset, erroring on unknown names.
func filterAnalyzers(all []lint.Analyzer, names string) ([]lint.Analyzer, error) {
	byName := make(map[string]lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", fmt.Errorf("not a module root: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("no module declaration in %s", gomod)
}

package alex_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fuzzFuncRE = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	// One line of the Makefile's fuzz target:
	//	$(GO) test ./internal/rdf/ -run '^$$' -fuzz '^FuzzNTriples$$' -fuzztime 10s
	fuzzLineRE = regexp.MustCompile(`\$\(GO\) test \./(\S+?)/? .*-fuzz '\^(Fuzz\w+)\$\$'`)
)

// TestMakefileFuzzesEveryTarget: the Makefile's fuzz target is CI's only
// copy of the fuzz target list, so every func Fuzz… in the module must be
// on it, under its own package, and every entry on it must still exist.
func TestMakefileFuzzesEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{} // "pkgdir FuzzName"
	for _, m := range fuzzLineRE.FindAllStringSubmatch(string(makefile), -1) {
		listed[m[1]+" "+m[2]] = true
	}
	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFuncRE.FindAllStringSubmatch(string(src), -1) {
			declared[filepath.ToSlash(filepath.Dir(path))+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no fuzz targets in the module")
	}
	for k := range declared {
		if !listed[k] {
			t.Errorf("fuzz target %s is missing from the Makefile's fuzz target", k)
		}
	}
	for k := range listed {
		if !declared[k] {
			t.Errorf("the Makefile's fuzz target lists %s, which no test file declares", k)
		}
	}
}

package rdf

import "testing"

// TestScannerEnds pins where each scanner stops: what it leaves unread
// is what the next token of the caller's grammar starts with.
func TestScannerEnds(t *testing.T) {
	for _, c := range []struct {
		name string
		scan func(string, int) int
		in   string
		end  int
	}{
		{"lang", ScanLangTag, "@en-US x", 6},
		{"lang", ScanLangTag, "@en--", 3},
		{"lang", ScanLangTag, "@en_US", 3},
		{"lang", ScanLangTag, "@1en", 0},
		{"blank", ScanBlankLabel, "_:b1.x.", 6},
		{"blank", ScanBlankLabel, "_:.a", 0},
		{"blank", ScanBlankLabel, "_:é-1 ", 6},
		{"pname", func(s string, i int) int { _, end := ScanPrefixedName(s, i); return end }, "ex:o. ", 4},
		{"pname", func(s string, i int) int { _, end := ScanPrefixedName(s, i); return end }, "ex:-a", 3},
		{"pname", func(s string, i int) int { _, end := ScanPrefixedName(s, i); return end }, ":a..b", 5},
		{"pname", func(s string, i int) int { _, end := ScanPrefixedName(s, i); return end }, "e.x:", 4},
		{"pname", func(s string, i int) int { _, end := ScanPrefixedName(s, i); return end }, "_:b", 0},
		{"number", ScanNumber, "-1.5.", 4},
		{"number", ScanNumber, "5.x", 1},
		{"number", ScanNumber, "+.5", 0},
		{"space", SkipSpace, " \t# c\r\n\n x", 9},
	} {
		if got := c.scan(c.in, 0); got != c.end {
			t.Errorf("%s(%q) = %d, want %d", c.name, c.in, got, c.end)
		}
	}
}

// TestScanStringForms: the four quote forms and every escape decode to
// one value; an escape-free literal is a substring of the input.
func TestScanStringForms(t *testing.T) {
	for in, want := range map[string]string{
		`"a\tb\bc\nd\re\ff\"g\'h\\i" .`: "a\tb\bc\nd\re\ff\"g'h\\i",
		`'a"b' .`:                       `a"b`,
		`"""a""b"c""" .`:                `a""b"c`,
		"'''a\nb''' .":                  "a\nb",
		`"é\U0001F600" .`:               "é\U0001F600",
		`"" .`:                          "",
	} {
		got, end, err := ScanString(in, 0)
		if err != nil || got != want || in[end:] != " ." {
			t.Errorf("ScanString(%q) = %q, %d, %v; want %q before \" .\"", in, got, end, err, want)
		}
	}
	for _, in := range []string{"\"a\nb\"", "'a\rb'", `"\uD800"`, `"\U00110000"`, `"\u00g9"`, `"\q"`, `"a\`, `"""a""`} {
		if _, _, err := ScanString(in, 0); err == nil {
			t.Errorf("ScanString(%q) accepted", in)
		}
	}
}

// TestScanIRIExcludes: every character IRIREF excludes is rejected.
func TestScanIRIExcludes(t *testing.T) {
	if end, err := ScanIRI("<http://x/é?a=1#f> .", 0); err != nil || end != 19 {
		t.Errorf("ScanIRI = %d, %v", end, err)
	}
	for _, c := range "\x00\x01 \t\n<\"{}|^`\\" {
		if _, err := ScanIRI("<http://x/"+string(c)+">", 0); err == nil {
			t.Errorf("ScanIRI accepted %q", c)
		}
	}
}

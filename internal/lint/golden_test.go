package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldenCases maps each testdata package to the import path it pretends
// to live at (which controls scope-sensitive rules) and the analyzers
// under test. Directive validation (rule "lint") always runs.
var goldenCases = []struct {
	dir    string
	asPath string
	rules  []string
}{
	{"determinism", "rejuv/internal/des/golden", []string{"determinism"}},
	{"floatcmp", "rejuv/internal/golden/floatcmp", []string{"floatcmp"}},
	{"droppederr", "rejuv/internal/golden/droppederr", []string{"droppederr"}},
	{"mapiter", "rejuv/internal/golden/mapiter", []string{"mapiter"}},
	{"seedflow", "rejuv/cmd/golden", []string{"seedflow"}},
	{"allow", "rejuv/internal/golden/allow", []string{"floatcmp"}},
	{"doccomment", "rejuv/internal/golden/doccomment", []string{"doccomment"}},
	{"doccomment_nopkg", "rejuv/internal/golden/nopkg", []string{"doccomment"}},
	{"hotpath", "rejuv/internal/golden/hotpath", []string{"hotpath"}},
	{"lockguard", "rejuv/internal/golden/lockguard", []string{"lockguard"}},
}

// TestGolden checks every analyzer against its testdata package: each
// `// want "regexp"` comment must be matched by exactly one finding on
// its line, and every finding must be wanted. A want comment that has a
// line to itself refers to the line above it (used where the finding's
// line is itself a comment, e.g. directive findings).
func TestGolden(t *testing.T) {
	loader, err := newLoader("testdata/src")
	if err != nil {
		t.Fatalf("newLoader: %v", err)
	}
	for _, tc := range goldenCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			p, err := loader.load(tc.asPath, dir)
			if err != nil {
				t.Fatalf("load %s: %v", tc.dir, err)
			}
			analyzers := selectByName(t, tc.rules)
			diags := Analyze(NewTree([]*Package{p}), analyzers)
			wants := parseWants(t, p)
			checkGolden(t, diags, wants)
		})
	}
}

func selectByName(t *testing.T, names []string) []*Analyzer {
	t.Helper()
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			t.Fatalf("unknown analyzer %q in golden case", n)
		}
		out = append(out, a)
	}
	return out
}

// want is one expectation: a compiled regexp anchored to a line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`want\s+((?:"(?:[^"\\]|\\.)*"\s*)+)`)
var wantQuoteRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants extracts the expectations from every comment in the
// package.
func parseWants(t *testing.T, p *Package) []*want {
	t.Helper()
	lines := make(map[string][]string) // filename -> source lines
	var wants []*want
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.position(c.Pos())
				if _, ok := lines[pos.Filename]; !ok {
					data, err := os.ReadFile(pos.Filename)
					if err != nil {
						t.Fatalf("read %s: %v", pos.Filename, err)
					}
					lines[pos.Filename] = strings.Split(string(data), "\n")
				}
				line := pos.Line
				src := lines[pos.Filename]
				if pos.Line-1 < len(src) && strings.TrimSpace(src[pos.Line-1][:pos.Column-1]) == "" {
					// The comment owns its line: it describes the line above.
					line--
				}
				for _, q := range wantQuoteRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, q[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: line, re: re})
				}
			}
		}
	}
	return wants
}

// checkGolden pairs findings against expectations one-to-one.
func checkGolden(t *testing.T, diags []Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		text := fmt.Sprintf("%s: %s", d.Rule, d.Message)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

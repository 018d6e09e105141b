// Package vettest is an analysistest-style fixture runner for shield-vet
// analyzers: fixtures live under testdata/src/<pkg>, and lines that should
// produce a diagnostic carry a `// want "regexp"` comment. Each want must be
// matched by a diagnostic on its line, and every diagnostic must be matched
// by a want — both directions fail the test, exactly like
// golang.org/x/tools/go/analysis/analysistest.
package vettest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"shield/internal/vet/analysis"
	"shield/internal/vet/load"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")

// Run loads each fixture package under testdata/src and applies the
// analyzer, comparing diagnostics against // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	abs, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := load.NewLoader(".")
	if err != nil {
		t.Fatalf("vettest: %v", err)
	}
	loader.FixtureRoots = []string{filepath.Join(abs, "src")}

	// The fixture packages are the module an Analyzer.Module hook sees.
	var loaded []*load.Package
	for _, pkg := range pkgs {
		p, err := loader.LoadDir(filepath.Join(abs, "src", pkg))
		if err != nil {
			t.Errorf("%s: load: %v", pkg, err)
			continue
		}
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", pkg, terr)
		}
		loaded = append(loaded, p)
	}
	var modResult any
	if a.Module != nil {
		modResult = a.Module(loaded)
	}

	for _, p := range loaded {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Module:    modResult,
		}
		pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			t.Errorf("%s: analyzer: %v", p.Path, err)
			continue
		}
		compare(t, p.Fset, p.Dir, diags)
	}
}

type key struct {
	file string
	line int
}

// compare matches diagnostics against want comments in the fixture sources.
func compare(t *testing.T, fset *token.FileSet, dir string, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[key][]*regexp.Regexp{}
	ents, err := os.ReadDir(dir) //shield:nofs the fixture runner reads Go sources directly; there is no vfs seam beneath the toolchain
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path) //shield:nofs fixture source read, same as above
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
				pat := arg[1]
				if pat == "" {
					pat = arg[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Errorf("%s:%d: bad want pattern %q: %v", path, i+1, pat, err)
					continue
				}
				wants[key{path, i + 1}] = append(wants[key{path, i + 1}], re)
			}
		}
	}

	matched := map[*regexp.Regexp]bool{}
	var unexpected []string
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		found := false
		for _, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[re] = true
				found = true
				break
			}
		}
		if !found {
			unexpected = append(unexpected, fmt.Sprintf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message))
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Error(u)
	}
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: no diagnostic matched want %q", k.file, k.line, re)
			}
		}
	}
}

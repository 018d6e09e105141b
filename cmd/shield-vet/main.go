// Command shield-vet statically enforces SHIELD's durability,
// encryption-boundary, key-hygiene, and concurrency invariants across this
// repository.
//
// Usage:
//
//	go run ./cmd/shield-vet ./...            # whole module (CI gate)
//	go run ./cmd/shield-vet ./internal/kds   # one package
//	go run ./cmd/shield-vet -only syncdir,atomics ./...
//	go run ./cmd/shield-vet -json ./...      # machine-readable findings
//	go run ./cmd/shield-vet -suppressions ./... # audit //shield:no* directives
//	go run ./cmd/shield-vet -list            # describe the suite
//
// Exit status is 1 if any analyzer reports a finding (or, under
// -suppressions, if any directive is stale or missing its reason), 2 on
// usage errors, load errors, or packages that fail to type-check — a
// half-type-checked package silently weakens every analyzer, so it is a
// hard error, not a warning.
//
// Packages are loaded and analyzed by a bounded worker pool (-parallel,
// default GOMAXPROCS); findings are sorted before printing, so the output
// is byte-identical at every parallelism level.
//
// With -json, findings are emitted on stdout as one JSON document:
//
//	{"version": 1, "packages": N, "analyzers": [...],
//	 "findings": [{"file": "internal/...", "line": L, "col": C,
//	               "analyzer": "...", "message": "..."}]}
//
// File paths are module-relative, which is what the CI annotation step
// feeds to GitHub. The text format is unchanged: file:line:col: [analyzer]
// message.
//
// Suppressions: a finding is silenced by //shield:no<analyzer> <reason> on
// its line, the line above, or in the enclosing function's doc comment. The
// justification is mandatory — a bare directive does not suppress.
// -suppressions lists every directive with its position and reason and
// fails on stale ones (directives that no longer suppress anything), so
// dead annotations cannot accumulate.
//
// The tool is self-contained (stdlib go/ast + go/types with the source
// importer); it needs no network, no GOPATH, and no pre-built export data,
// so it runs identically in CI and on laptops. See DESIGN.md §9 and §14 for
// each analyzer's invariant and origin.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"shield/internal/vet/analysis"
	"shield/internal/vet/analyzers/all"
	"shield/internal/vet/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is one diagnostic, carrying both the raw (absolute) position for
// text output and the module-relative path for JSON.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`

	text string // pre-rendered "abs:line:col: [analyzer] message"
}

// jsonReport is the -json document. Bump Version on breaking changes; the
// CI annotation step keys on it.
type jsonReport struct {
	Version   int       `json:"version"`
	Packages  int       `json:"packages"`
	Analyzers []string  `json:"analyzers"`
	Findings  []finding `json:"findings"`
}

// pkgResult is everything one worker produced for one package directory.
type pkgResult struct {
	findings []finding
	loadErr  error
	typeErrs []error
	pkgPath  string
	pkg      *load.Package
	used     []usedDirective
}

type usedDirective struct {
	file string
	line int
	name string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shield-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only         = fs.String("only", "", "comma-separated subset of analyzers to run")
		list         = fs.Bool("list", false, "list analyzers and exit")
		quiet        = fs.Bool("q", false, "suppress the summary line")
		jsonOut      = fs.Bool("json", false, "emit findings as JSON on stdout")
		suppressions = fs.Bool("suppressions", false, "audit //shield:no* directives: list all, fail on stale or reasonless ones")
		parallel     = fs.Int("parallel", runtime.GOMAXPROCS(0), "number of packages loaded and analyzed concurrently (1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The suppression audit always runs the full suite: a directive for an
	// analyzer excluded by -only would be indistinguishable from stale.
	suite := all.Analyzers
	if *only != "" && !*suppressions {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "shield-vet: unknown analyzer %q\n", name)
				return 2
			}
			suite = append(suite, a)
		}
	}
	if *list {
		for _, a := range all.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := load.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "shield-vet:", err)
		return 2
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "shield-vet:", err)
		return 2
	}

	modules, err := moduleResults(loader, dirs, suite, *parallel)
	if err != nil {
		fmt.Fprintln(stderr, "shield-vet:", err)
		return 2
	}
	results := analyzeAll(loader, dirs, suite, modules, *parallel, *suppressions)

	// Load and type errors are hard failures: a package that does not
	// type-check is silently half-analyzed, which is worse than failing.
	loadFailed := false
	for _, r := range results {
		if r.loadErr != nil {
			fmt.Fprintln(stderr, "shield-vet:", r.loadErr)
			loadFailed = true
		}
		for _, terr := range r.typeErrs {
			fmt.Fprintf(stderr, "shield-vet: %s: type error: %v\n", r.pkgPath, terr)
			loadFailed = true
		}
	}
	if loadFailed {
		fmt.Fprintln(stderr, "shield-vet: load errors: packages that fail to type-check are not analyzed")
		return 2
	}

	if *suppressions {
		return auditSuppressions(loader, results, stdout, stderr, *quiet)
	}

	var findings []finding
	for _, r := range results {
		findings = append(findings, r.findings...)
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].text < findings[j].text })

	if *jsonOut {
		rep := jsonReport{Version: 1, Packages: len(dirs), Findings: findings}
		for _, a := range suite {
			rep.Analyzers = append(rep.Analyzers, a.Name)
		}
		if rep.Findings == nil {
			rep.Findings = []finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "shield-vet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.text)
		}
	}

	if len(findings) > 0 {
		if !*quiet {
			fmt.Fprintf(stderr, "shield-vet: %d finding(s) across %d package(s)\n", len(findings), len(dirs))
		}
		return 1
	}
	if !*quiet {
		fmt.Fprintf(stderr, "shield-vet: clean (%d packages, %d analyzers)\n", len(dirs), len(suite))
	}
	return 0
}

// moduleResults runs each Analyzer.Module hook of the suite once, over every
// package of the module and every package the patterns name: a caller in
// any of them counts. A package that fails to load is left out here; it is
// reported when it is analyzed.
func moduleResults(loader *load.Loader, named []string, suite []*analysis.Analyzer, workers int) (map[*analysis.Analyzer]any, error) {
	var hooked []*analysis.Analyzer
	for _, a := range suite {
		if a.Module != nil {
			hooked = append(hooked, a)
		}
	}
	if len(hooked) == 0 {
		return nil, nil
	}
	dirs, err := loader.Expand(append([]string{"./..."}, named...))
	if err != nil {
		return nil, err
	}
	pkgs := make([]*load.Package, len(dirs))
	forEach(len(dirs), workers, func(i int) {
		pkgs[i], _ = loader.LoadDir(dirs[i])
	})
	var module []*load.Package
	for _, p := range pkgs {
		if p != nil {
			module = append(module, p)
		}
	}
	out := make(map[*analysis.Analyzer]any, len(hooked))
	for _, a := range hooked {
		out[a] = a.Module(module)
	}
	return out, nil
}

// analyzeAll fans dirs out over a bounded worker pool. Results land in a
// slot per directory, so ordering never depends on scheduling.
func analyzeAll(loader *load.Loader, dirs []string, suite []*analysis.Analyzer, modules map[*analysis.Analyzer]any, workers int, trackSuppressions bool) []pkgResult {
	results := make([]pkgResult, len(dirs))
	forEach(len(dirs), workers, func(i int) {
		results[i] = analyzeOne(loader, dirs[i], suite, modules, trackSuppressions)
	})
	return results
}

// forEach calls fn(0..n-1) on a pool of at most workers goroutines.
func forEach(n, workers int, fn func(int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func analyzeOne(loader *load.Loader, dir string, suite []*analysis.Analyzer, modules map[*analysis.Analyzer]any, trackSuppressions bool) pkgResult {
	var r pkgResult
	p, err := loader.LoadDir(dir)
	if err != nil {
		r.loadErr = err
		return r
	}
	r.pkg = p
	r.pkgPath = p.Path
	r.typeErrs = p.TypeErrors
	if len(r.typeErrs) > 0 {
		return r
	}
	for _, a := range suite {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Module:    modules[a],
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			pos := p.Fset.Position(d.Pos)
			r.findings = append(r.findings, finding{
				File:     relModule(loader, pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: name,
				Message:  d.Message,
				text:     fmt.Sprintf("%s: [%s] %s", pos, name, d.Message),
			})
		}
		if trackSuppressions {
			pass.SuppressionUsed = func(file string, line int, dname string) {
				r.used = append(r.used, usedDirective{file: file, line: line, name: dname})
			}
		}
		if err := a.Run(pass); err != nil {
			r.loadErr = fmt.Errorf("%s on %s: %w", a.Name, p.Path, err)
			return r
		}
	}
	return r
}

// relModule renders file relative to the module root when it is inside it.
func relModule(loader *load.Loader, file string) string {
	if rel, err := filepath.Rel(loader.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// auditSuppressions lists every //shield:no* directive and fails on the
// stale or reasonless ones. The full suite has already run with
// suppression tracking; a directive that never fired suppresses nothing and
// must be deleted — dead annotations rot into misdocumentation.
func auditSuppressions(loader *load.Loader, results []pkgResult, stdout, stderr io.Writer, quiet bool) int {
	known := map[string]bool{}
	for _, a := range all.Analyzers {
		known[analysis.DirectiveName(a.Name)] = true
	}
	used := map[usedDirective]bool{}
	for _, r := range results {
		for _, u := range r.used {
			used[u] = true
		}
	}

	type row struct {
		d     analysis.Directive
		stale bool
		why   string
	}
	var rows []row
	bad := 0
	for _, r := range results {
		if r.pkg == nil {
			continue
		}
		for _, d := range analysis.ScanDirectives(r.pkg.Fset, r.pkg.Files) {
			rw := row{d: d}
			switch {
			case !known[d.Name]:
				rw.stale = true
				rw.why = "unknown analyzer"
			case d.Reason == "":
				rw.stale = true
				rw.why = "missing reason (does not suppress)"
			case !used[usedDirective{file: d.File, line: d.Line, name: d.Name}]:
				rw.stale = true
				rw.why = "stale: suppresses no finding"
			}
			if rw.stale {
				bad++
			}
			rows = append(rows, rw)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d.File != rows[j].d.File {
			return rows[i].d.File < rows[j].d.File
		}
		return rows[i].d.Line < rows[j].d.Line
	})
	for _, rw := range rows {
		mark := "ok   "
		if rw.stale {
			mark = "STALE"
		}
		reason := rw.d.Reason
		if reason == "" {
			reason = "(no reason)"
		}
		fmt.Fprintf(stdout, "%s %s:%d: //shield:%s %s\n", mark, relModule(loader, rw.d.File), rw.d.Line, rw.d.Name, reason)
		if rw.stale {
			fmt.Fprintf(stdout, "      ^ %s\n", rw.why)
		}
	}
	if !quiet {
		fmt.Fprintf(stderr, "shield-vet: %d suppression(s), %d stale\n", len(rows), bad)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

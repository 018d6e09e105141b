// Package analysis is a minimal, dependency-free subset of the
// golang.org/x/tools/go/analysis framework: an Analyzer inspects one
// type-checked package at a time and reports Diagnostics.
//
// The repo deliberately has zero external module dependencies, so shield-vet
// cannot link against x/tools; this package mirrors the parts of its API the
// suite needs (Analyzer, Pass, Diagnostic) on top of the standard library's
// go/ast and go/types. Analyzers written against it port to the real
// framework with only import changes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"shield/internal/vet/load"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the suppression
	// directive (//shield:no<Name> <reason>).
	Name string

	// Doc states the invariant the analyzer enforces and why.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) error

	// Module, if set, runs once per driver run, before any Run, over every
	// non-test package of the module, whatever packages the run names. Its
	// result reaches each Run as Pass.Module. It serves invariants that
	// span packages (testonly: a function that no package calls).
	Module func([]*load.Package) any
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module is the result of the analyzer's Module hook, nil if it has
	// none.
	Module any

	// Report emits one diagnostic. The Pass wraps it with suppression
	// handling: a //shield:no<name> directive with a justification on the
	// diagnostic's line, the line above it, or the enclosing function's doc
	// comment silences the finding.
	Report func(Diagnostic)

	// SuppressionUsed, if set, is invoked whenever a directive silences a
	// finding, identified by the directive comment's own file:line and
	// normalized name ("nofs", "nosyncdir", ...). The shield-vet
	// -suppressions audit uses it to find stale directives that no longer
	// suppress anything.
	SuppressionUsed func(file string, line int, name string)

	directives map[string][]directive // filename -> sorted by line
	funcDocs   []funcDoc
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports a diagnostic at pos unless a matching
// suppression directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.Suppressed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// directive is one parsed //shield:noXXX comment.
type directive struct {
	line   int
	name   string // e.g. "nosyncdir"
	reason string
}

type funcDoc struct {
	file       string
	start, end int // line span of the function body
	names      []string
	reasons    []string
	lines      []int // comment line of each directive, for usage tracking
}

// DirectivePrefix introduces a suppression comment: //shield:no<analyzer> <why>.
const DirectivePrefix = "shield:"

// initDirectives scans all comments once per pass.
func (p *Pass) initDirectives() {
	if p.directives != nil {
		return
	}
	p.directives = make(map[string][]directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, DirectivePrefix)
				name, reason, _ := strings.Cut(rest, " ")
				pos := p.Fset.Position(c.Pos())
				p.directives[pos.Filename] = append(p.directives[pos.Filename], directive{
					line:   pos.Line,
					name:   name,
					reason: strings.TrimSpace(reason),
				})
			}
		}
		// Function-doc-level suppression: a directive in a FuncDecl's doc
		// comment covers the whole body (used when a function legitimately
		// violates an invariant in several places, e.g. a client that
		// serializes requests over one connection under a mutex).
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			var names, reasons []string
			var lines []int
			for _, c := range fd.Doc.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, DirectivePrefix) {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimPrefix(text, DirectivePrefix), " ")
				names = append(names, name)
				reasons = append(reasons, strings.TrimSpace(reason))
				lines = append(lines, p.Fset.Position(c.Pos()).Line)
			}
			if len(names) == 0 {
				continue
			}
			start := p.Fset.Position(fd.Body.Pos())
			end := p.Fset.Position(fd.Body.End())
			p.funcDocs = append(p.funcDocs, funcDoc{
				file: start.Filename, start: start.Line, end: end.Line,
				names: names, reasons: reasons, lines: lines,
			})
		}
	}
}

// Suppressed reports whether a diagnostic of this pass's analyzer at pos is
// silenced by a //shield:no<name> directive with a non-empty justification.
// A directive without a justification does not suppress — the invariant is
// that every exemption documents why it is safe. When a directive fires, the
// SuppressionUsed hook (if any) is told which one.
func (p *Pass) Suppressed(pos token.Pos) bool {
	p.initDirectives()
	want := DirectiveName(p.Analyzer.Name)
	position := p.Fset.Position(pos)
	for _, d := range p.directives[position.Filename] {
		if d.name != want {
			continue
		}
		if d.line == position.Line || d.line == position.Line-1 {
			if d.reason == "" {
				return false
			}
			if p.SuppressionUsed != nil {
				p.SuppressionUsed(position.Filename, d.line, d.name)
			}
			return true
		}
	}
	for _, fd := range p.funcDocs {
		if fd.file != position.Filename || position.Line < fd.start || position.Line > fd.end {
			continue
		}
		for i, n := range fd.names {
			if n == want && fd.reasons[i] != "" {
				if p.SuppressionUsed != nil {
					p.SuppressionUsed(fd.file, fd.lines[i], n)
				}
				return true
			}
		}
	}
	return false
}

// DirectiveName maps an analyzer name to its suppression-directive name:
// //shield:no<analyzer>, except nofs, which already carries its "no" (the
// directive is //shield:nofs, not //shield:nonofs). The exception is
// exact-match: noncebound's directive is //shield:nononcebound.
func DirectiveName(analyzer string) string {
	if analyzer == "nofs" {
		return analyzer
	}
	return "no" + analyzer
}

// Directive is one //shield:no<analyzer> comment found in a file, for the
// shield-vet -suppressions audit.
type Directive struct {
	File   string
	Line   int
	Name   string // as written, e.g. "nosyncdir"
	Reason string
}

// ScanDirectives enumerates every shield: directive in files, in file order.
// Doc-comment directives are included once (doc comments are also members of
// ast.File.Comments).
func ScanDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, DirectivePrefix) {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimPrefix(text, DirectivePrefix), " ")
				pos := fset.Position(c.Pos())
				out = append(out, Directive{
					File:   pos.Filename,
					Line:   pos.Line,
					Name:   name,
					Reason: strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}

// InTestFile reports whether pos is inside a _test.go file. All shield-vet
// analyzers exempt test code: tests exercise raw os APIs, craft corrupt
// inputs, and print secrets on purpose.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

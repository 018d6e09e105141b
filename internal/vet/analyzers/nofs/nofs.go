// Package nofs forbids direct os / io/ioutil file APIs outside the vfs
// package.
//
// Invariant: every file the engine touches goes through vfs.FS, because that
// seam is where fault injection, crash simulation, and I/O accounting
// interpose, and what the engine's encrypting file wrapper writes through. A naked os.Open
// or os.WriteFile is a path where plaintext can reach disk around the
// encrypting layer — the exact host-side failure mode SHIELD exists to
// prevent — and a path the crash/fault harnesses can never exercise.
//
// Exempt: the vfs package itself (its OSFS backend is the one legitimate os
// user), _test.go files, and sites annotated //shield:nofs <reason> (e.g.
// benchmark scratch-directory setup that precedes mounting any FS).
package nofs

import (
	"go/ast"

	"shield/internal/vet/analysis"
	"shield/internal/vet/vetutil"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "nofs",
	Doc:  "forbid direct os/ioutil file APIs outside internal/vfs so encryption and fault wrappers always interpose",
	Run:  run,
}

// banned lists the os functions that create, open, mutate, or stat files and
// directories. Process-level APIs (os.Exit, os.Args, os.Stdout, os.Signal,
// os.Getenv) are fine: they do not touch the data path.
var banned = map[string]bool{
	"Create": true, "CreateTemp": true, "Open": true, "OpenFile": true,
	"NewFile": true, "ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Truncate": true, "Link": true, "Symlink": true, "Chmod": true,
	"Chtimes": true, "Stat": true, "Lstat": true,
}

func run(pass *analysis.Pass) error {
	if vetutil.PathIs(pass.Pkg.Path(), "vfs") {
		return nil // the OSFS backend lives here
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pass.InTestFile(call.Pos()) {
				return false
			}
			fn := vetutil.Callee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			switch vetutil.PkgPath(fn) {
			case "os":
				if banned[fn.Name()] {
					pass.Reportf(call.Pos(),
						"direct os.%s bypasses the vfs seam (encryption, fault injection, crash simulation); use a vfs.FS, or annotate //shield:nofs <reason>",
						fn.Name())
				}
			case "io/ioutil":
				pass.Reportf(call.Pos(),
					"io/ioutil.%s bypasses the vfs seam; use a vfs.FS, or annotate //shield:nofs <reason>",
					fn.Name())
			}
			return true
		})
	}
	return nil
}

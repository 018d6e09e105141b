// Package syncdir enforces the durability-ordering rule the PR 2 crash
// harness proved by brute force: a file created or renamed into a directory
// does not survive power loss until the parent directory has been synced.
//
// Invariant: in non-test code, a call to an FS-shaped value's Rename or
// Create must be followed — later in the same function — by a SyncDir call,
// or carry an explicit //shield:nosyncdir <reason> annotation. "FS-shaped"
// means the receiver's method set includes SyncDir, which matches vfs.FS and
// every wrapper, without this analyzer importing them (fixtures model the
// interface locally).
//
// The check is a syntactic post-dominance approximation, not a CFG walk: it
// demands that *some* SyncDir call appear at a later source position inside
// the same top-level function (closures included). That is exactly the shape
// of every legitimate site in this repo (write tmp → rename → SyncDir;
// create outputs → SyncDir before the manifest edit), and it caught the
// kds.PersistentStore.Save rename that shipped without one. Functions that
// intentionally defer the sync to a caller (e.g. a helper that writes a tmp
// file which the caller renames and syncs) document that with the
// annotation.
//
// Methods on FS-shaped receivers are exempt: wrappers (fault, latency,
// counting, crash) forward Rename/Create and do not own durability
// policy — their callers do.
package syncdir

import (
	"go/ast"
	"go/token"

	"shield/internal/vet/analysis"
	"shield/internal/vet/vetutil"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "syncdir",
	Doc:  "FS.Rename/Create must be followed by SyncDir on the parent directory in the same function (crash durability)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			if recvIsFS(pass, fd) {
				continue // FS wrapper forwarding; durability owned by callers
			}
			check(pass, fd.Body)
		}
	}
	return nil
}

func recvIsFS(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return false
	}
	return vetutil.HasMethod(tv.Type, "SyncDir")
}

func check(pass *analysis.Pass, body *ast.BlockStmt) {
	type site struct {
		pos  token.Pos
		name string
	}
	var (
		mutations []site
		lastSync  token.Pos = token.NoPos
	)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Rename", "Create":
			if recv := vetutil.ReceiverType(pass.TypesInfo, call); vetutil.HasMethod(recv, "SyncDir") {
				mutations = append(mutations, site{call.Pos(), sel.Sel.Name})
			}
		case "SyncDir":
			if call.End() > lastSync {
				lastSync = call.End()
			}
		}
		return true
	})
	for _, m := range mutations {
		if lastSync > m.pos {
			continue
		}
		pass.Reportf(m.pos,
			"FS.%s with no later SyncDir in this function: the entry is not durable until the parent directory is synced; add fs.SyncDir(dir) or annotate //shield:nosyncdir <reason>",
			m.name)
	}
}

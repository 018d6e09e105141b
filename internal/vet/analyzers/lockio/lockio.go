// Package lockio flags blocking I/O performed while holding a sync.Mutex or
// sync.RWMutex — the stall pattern that kills tail latency once storage is
// disaggregated and a "file operation" is a network round trip.
//
// What counts as blocking I/O:
//   - any method call on an FS-shaped value (method set includes SyncDir) or
//     on file handles (Sync+Write writers, ReadAt+Size readers);
//   - vfs.ReadFile / vfs.WriteFile helpers;
//   - anything in package net, and methods on net types (Conn deadlines,
//     dials);
//   - KDS-shaped calls (method set includes FetchDEK) — a KDS round trip is
//     measured in milliseconds;
//   - time.Sleep and netretry.Sleep — deliberate waiting under a lock is
//     the same stall with better intentions.
//
// Two region forms are checked, both intra-function:
//   - between x.Lock()/x.RLock() and the matching positional x.Unlock()
//     (or to the end of the function when the unlock is deferred);
//   - the entire body of a function whose name contains "Locked" — this
//     repo's convention for "caller holds the lock" (saveLocked,
//     applyEditLocked, ...), which is how lock-held I/O hides from a
//     purely intra-function scan.
//
// Self-calls are exempt from the shape-based classifications: a method
// invoking another method on its own receiver is not a round trip to a
// remote FS or KDS — the shape heuristic infers I/O from a value's
// interface, which is wrong when the value is the very object whose lock is
// held (Store.checkServer under Store.mu is a map lookup, not a KDS fetch).
// Lock-held helpers doing real I/O are still caught by the *Locked*
// convention and by the package-based classifiers, which stay unconditional.
//
// Some designs hold a lock across I/O on purpose: a WAL append mutex is the
// commit-order definition; a network client may serialize requests over one
// connection with a mutex as the queue. Those functions carry
// //shield:nolockio <reason> in their doc comment.
package lockio

import (
	"go/ast"
	"go/token"
	"go/types"

	"shield/internal/vet/analysis"
	"shield/internal/vet/vetutil"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "no blocking I/O (vfs, net, KDS/dstore calls, sleeps) while holding a sync.Mutex/RWMutex",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

type lockEvent struct {
	pos      token.Pos
	expr     string // printed receiver expression, e.g. "c.mu"
	op       string // Lock, RLock, Unlock, RUnlock
	deferred bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var events []lockEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		deferred := false
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.DeferStmt:
			call = n.Call
			deferred = true
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		op := sel.Sel.Name
		switch op {
		case "Lock", "RLock", "Unlock", "RUnlock":
		default:
			return true
		}
		fn := vetutil.Callee(pass.TypesInfo, call)
		if fn == nil || vetutil.PkgPath(fn) != "sync" {
			return true
		}
		events = append(events, lockEvent{call.Pos(), types.ExprString(sel.X), op, deferred})
		return !deferred // a defer's call args were already handled
	})

	type region struct{ start, end token.Pos }
	var regions []region
	for _, e := range events {
		if e.deferred || (e.op != "Lock" && e.op != "RLock") {
			continue
		}
		end := fd.Body.End()
		unlock := "Unlock"
		if e.op == "RLock" {
			unlock = "RUnlock"
		}
		for _, u := range events {
			if u.op == unlock && !u.deferred && u.expr == e.expr && u.pos > e.pos && u.pos < end {
				end = u.pos
			}
		}
		regions = append(regions, region{e.pos, end})
	}
	// Convention: *Locked* functions run with the caller's lock held.
	if fd.Name != nil && containsLocked(fd.Name.Name) {
		regions = append(regions, region{fd.Body.Pos(), fd.Body.End()})
	}
	if len(regions) == 0 {
		return
	}

	var recvObj types.Object
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recvObj = pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		inRegion := false
		for _, r := range regions {
			if call.Pos() > r.start && call.Pos() < r.end {
				inRegion = true
				break
			}
		}
		if !inRegion {
			return true
		}
		if what, ok := blockingIO(pass, call, recvObj); ok {
			pass.Reportf(call.Pos(),
				"%s while holding a mutex: blocking I/O under a lock serializes every other holder behind storage/network latency; move the I/O outside the critical section or annotate //shield:nolockio <reason>",
				what)
		}
		return true
	})
}

func containsLocked(name string) bool {
	for i := 0; i+6 <= len(name); i++ {
		if name[i:i+6] == "Locked" {
			return true
		}
	}
	return false
}

// blockingIO classifies a call as blocking I/O. recvObj, when non-nil, is
// the enclosing method's receiver variable: calls on it are exempt from the
// shape-based classifications (see the package doc).
func blockingIO(pass *analysis.Pass, call *ast.CallExpr, recvObj types.Object) (string, bool) {
	fn := vetutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	pkg := vetutil.PkgPath(fn)
	name := fn.Name()

	switch {
	case pkg == "time" && name == "Sleep":
		return "time.Sleep", true
	case vetutil.PathIs(pkg, "netretry") && name == "Sleep":
		return "netretry.Sleep", true
	case pkg == "net":
		return "net." + name, true
	case vetutil.PathIs(pkg, "vfs") && (name == "ReadFile" || name == "WriteFile"):
		return "vfs." + name, true
	}

	recv := vetutil.ReceiverType(pass.TypesInfo, call)
	if recv == nil {
		return "", false
	}
	if recvObj != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recvObj {
				return "", false // self-call: not a remote round trip
			}
		}
	}
	if named, ok := deref(recv).(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "net" {
		return "net." + named.Obj().Name() + "." + name, true
	}
	switch {
	case vetutil.HasMethod(recv, "SyncDir"):
		return "FS." + name, true
	case vetutil.HasMethod(recv, "FetchDEK"):
		return "KDS." + name, true
	case vetutil.HasMethod(recv, "Sync") && vetutil.HasMethod(recv, "Write"):
		return "file." + name, true
	case vetutil.HasMethod(recv, "ReadAt") && vetutil.HasMethod(recv, "Size"):
		return "file." + name, true
	}
	return "", false
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

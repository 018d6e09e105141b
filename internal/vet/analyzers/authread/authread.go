// Package authread confines unauthenticated decryption to annotated sites.
//
// The sealed formats (v2, v3) seal every unit with AES-GCM: a read returns
// the bytes that were written or fails with an integrity error. The v1 CTR
// reader (crypt.NewDecryptingReaderAt) has no such guarantee — CTR
// decryption of tampered ciphertext yields silently wrong plaintext — so
// every call to it is a hole in the authenticated-read story. The serving
// path (Open, recovery, Scrub) reads only sealed v3 tables and refuses an
// older one with lsm.ErrNeedsMigrate. The one legitimate site is the
// offline migration (core.Migrate's wrapper, internal/core/migrate.go),
// which reads v1 tables written before sealing once, under a paranoid open,
// to rewrite them; its suppression carries that reason. A call appearing
// anywhere else is a regression that reopens the silent tampering window
// the format migration closed.
//
// Rule: any call to NewDecryptingReaderAt outside test files is flagged.
// Suppress with //shield:noauthread <reason> on the call line or the
// enclosing function's doc comment, stating why this read may legitimately
// bypass authentication.
package authread

import (
	"go/ast"

	"shield/internal/vet/analysis"
	"shield/internal/vet/vetutil"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "authread",
	Doc:  "unauthenticated (v1 CTR) block reads are confined to annotated compatibility sites",
	Run:  run,
}

func run(pass *analysis.Pass) error {
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
			if fn == nil || fn.Name() != "NewDecryptingReaderAt" {
				return true
			}
			pass.Reportf(call.Pos(),
				"NewDecryptingReaderAt reads without authentication (CTR: tampered ciphertext decrypts to silently wrong bytes): use the sealed v3 reader, or annotate //shield:noauthread <reason> if this site must accept legacy v1 files")
			return true
		})
	}
	return nil
}

// Package all registers the full shield-vet analyzer suite in the order the
// invariants were learned: encryption boundary, crash durability, key
// hygiene, tail latency, error routing, authenticated reads, and the
// concurrency/crypto-misuse set (lock ordering, atomics discipline,
// goroutine accounting, nonce binding), and code that only tests call.
package all

import (
	"shield/internal/vet/analysis"
	"shield/internal/vet/analyzers/atomics"
	"shield/internal/vet/analyzers/authread"
	"shield/internal/vet/analyzers/errclass"
	"shield/internal/vet/analyzers/goroleak"
	"shield/internal/vet/analyzers/keyhygiene"
	"shield/internal/vet/analyzers/lockio"
	"shield/internal/vet/analyzers/lockorder"
	"shield/internal/vet/analyzers/nofs"
	"shield/internal/vet/analyzers/noncebound"
	"shield/internal/vet/analyzers/syncdir"
	"shield/internal/vet/analyzers/testonly"
)

// Analyzers is the complete suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	nofs.Analyzer,
	syncdir.Analyzer,
	keyhygiene.Analyzer,
	lockio.Analyzer,
	errclass.Analyzer,
	authread.Analyzer,
	lockorder.Analyzer,
	atomics.Analyzer,
	goroleak.Analyzer,
	noncebound.Analyzer,
	testonly.Analyzer,
}

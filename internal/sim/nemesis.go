package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
)

// eventKind enumerates the nemesis's moves. Each paired fault (full/free,
// fault/heal, kill/restart) is planned as a matched pair so no run ends
// wedged behind a fault that never lifts.
type eventKind int

const (
	evDiskFull         eventKind = iota // shrink the data quota to Used()+arg bytes
	evDiskFree                          // lift the quota; heal-reopen if degraded
	evNetFault                          // probabilistic I/O faults on the data path
	evNetHeal                           // clear fault rules; heal-reopen if degraded
	evCacheFault                        // fail the next arg secure-cache saves
	evKDSKill                           // stop KDS replica arg
	evKDSRestart                        // restart every stopped KDS replica
	evStoreKill                         // stop the dstore node (dstore runs only)
	evStoreRestart                      // restart the dstore node; heal if degraded
	evBitRot                            // flip a bit in one cold SST (taints the run)
	evConnStorm                         // burst of arg RESP clients, valid + malformed mix
	evSlowClient                        // arg connections send a partial frame and stall
	evCrash                             // power loss: snapshot, restore, reopen (arg=1: torn)
	evManifestSnap                      // adversary captures the durable image
	evManifestRollback                  // adversary restores the captured image (taints)
	evReplicaKill                       // stop storage replica 1+arg%2 mid-write (nodeloss runs)
	evReplicaRestart                    // restart stopped replicas; re-sync reclaims them
	evWorkerKill                        // kill compaction worker arg%2 mid-lease (nodeloss runs)
	evWorkerRestart                     // restart dead compaction workers
)

var eventNames = map[eventKind]string{
	evDiskFull:         "disk-full",
	evDiskFree:         "disk-free",
	evNetFault:         "net-fault",
	evNetHeal:          "net-heal",
	evCacheFault:       "cache-fault",
	evKDSKill:          "kds-kill",
	evKDSRestart:       "kds-restart",
	evStoreKill:        "store-kill",
	evStoreRestart:     "store-restart",
	evBitRot:           "bit-rot",
	evConnStorm:        "conn-storm",
	evSlowClient:       "slow-client",
	evCrash:            "crash",
	evManifestSnap:     "manifest-snap",
	evManifestRollback: "manifest-rollback",
	evReplicaKill:      "replica-kill",
	evReplicaRestart:   "replica-restart",
	evWorkerKill:       "worker-kill",
	evWorkerRestart:    "worker-restart",
}

// event is one planned nemesis action, firing when the virtual clock
// reaches step. Everything in it derives from the seed, so the plan —
// and therefore its hash — replays byte-identically for a given seed.
type event struct {
	step uint64
	kind eventKind
	arg  int64
}

func (e event) String() string {
	return fmt.Sprintf("step=%d event=%s arg=%d", e.step, eventNames[e.kind], e.arg)
}

// planNemesis derives the full fault schedule from the seed. Pairing
// discipline: at most one disk-full, one net-fault window, one store-kill,
// one replica-kill, and one worker-kill outstanding at a time, and at
// least one KDS replica stays up outside kill windows — so the replicated
// fleet never drops below write quorum by plan (crashes can still overlap
// a kill window, which is the hard case the re-sync path must absorb).
// Crashes and bit-rot can land anywhere.
func planNemesis(cfg Config, rng *rand.Rand) []event {
	// The schedule is one event per 60 operations, at least four.
	n := max(cfg.Ops/60, 4)
	// Draw distinct steps across the run, then walk them assigning kinds
	// under the pairing discipline.
	steps := make(map[uint64]bool, n)
	for len(steps) < n {
		steps[1+uint64(rng.Int63n(int64(cfg.Ops)))] = true
	}
	ordered := make([]uint64, 0, n)
	for s := range steps {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

	var (
		plan       []event
		diskFull   bool
		netFault   bool
		kdsDown    bool
		storeDown  bool
		repDown    bool
		workerDown bool
	)
	// The rollback attack needs two ordered moves — capture an image, then
	// restore it with durable history in between — so leaving it to the
	// probability rolls would make most schedules skip it. Reserve two of
	// the drawn steps instead: a third of the way in and two thirds in.
	// Gated on the flag so every pre-existing seed's plan (and hash) is
	// unchanged with it off.
	snapIdx, rbIdx := -1, -1
	if cfg.Rollback {
		snapIdx = len(ordered) / 3
		rbIdx = (2 * len(ordered)) / 3
		if rbIdx <= snapIdx {
			rbIdx = snapIdx + 1
		}
	}
	for i, step := range ordered {
		if i == snapIdx {
			plan = append(plan, event{step, evManifestSnap, 0})
			continue
		}
		if i == rbIdx {
			plan = append(plan, event{step, evManifestRollback, 0})
			continue
		}
		// Close any open window first with some probability, so paired
		// faults actually overlap the workload instead of lasting one op.
		switch {
		case diskFull && rng.Float64() < 0.6:
			plan = append(plan, event{step, evDiskFree, 0})
			diskFull = false
			continue
		case netFault && rng.Float64() < 0.6:
			plan = append(plan, event{step, evNetHeal, 0})
			netFault = false
			continue
		case kdsDown && rng.Float64() < 0.7:
			plan = append(plan, event{step, evKDSRestart, 0})
			kdsDown = false
			continue
		case storeDown && rng.Float64() < 0.8:
			plan = append(plan, event{step, evStoreRestart, 0})
			storeDown = false
			continue
		// The fleet windows only open under NodeLoss, so these draws never
		// happen (and never shift pre-existing plans) with the flag off.
		case repDown && rng.Float64() < 0.7:
			plan = append(plan, event{step, evReplicaRestart, 0})
			repDown = false
			continue
		case workerDown && rng.Float64() < 0.7:
			plan = append(plan, event{step, evWorkerRestart, 0})
			workerDown = false
			continue
		}
		roll := rng.Float64()
		switch {
		case roll < 0.18 && !diskFull:
			plan = append(plan, event{step, evDiskFull, 512 + rng.Int63n(4096)})
			diskFull = true
		case roll < 0.33 && !netFault:
			plan = append(plan, event{step, evNetFault, 2 + rng.Int63n(6)})
			netFault = true
		case roll < 0.43:
			plan = append(plan, event{step, evCacheFault, 1 + rng.Int63n(3)})
		case roll < 0.55 && !kdsDown:
			plan = append(plan, event{step, evKDSKill, rng.Int63n(2)})
			kdsDown = true
		case roll < 0.63 && cfg.Dstore && !storeDown:
			plan = append(plan, event{step, evStoreKill, 0})
			storeDown = true
		case roll < 0.72 && cfg.BitRot:
			plan = append(plan, event{step, evBitRot, rng.Int63()})
		// The serving-layer events are gated on ConnStorm so every
		// pre-existing seed's plan (and hash) is unchanged with it off.
		case roll < 0.80 && cfg.ConnStorm:
			plan = append(plan, event{step, evConnStorm, 3 + rng.Int63n(6)})
		case roll < 0.85 && cfg.ConnStorm:
			plan = append(plan, event{step, evSlowClient, 1 + rng.Int63n(3)})
		// The fleet events are gated on NodeLoss the same way ConnStorm's
		// are: the short-circuit keeps the draw count (and so every
		// pre-existing seed's plan and hash) unchanged with the flag off.
		// Only replicas 1 and 2 are ever killed — replica 0 shares the
		// primary site's fault domain and dies in crash events instead.
		case roll < 0.80 && cfg.NodeLoss && !repDown:
			plan = append(plan, event{step, evReplicaKill, 1 + rng.Int63n(2)})
			repDown = true
		case roll < 0.88 && cfg.NodeLoss && !workerDown:
			plan = append(plan, event{step, evWorkerKill, rng.Int63n(2)})
			workerDown = true
		default:
			torn := int64(0)
			if rng.Float64() < 0.5 {
				torn = 1
			}
			plan = append(plan, event{step, evCrash, torn})
		}
	}
	// Lift anything still open so the run can finish and verify cleanly.
	end := uint64(cfg.Ops) + 1
	if diskFull {
		plan = append(plan, event{end, evDiskFree, 0})
	}
	if netFault {
		plan = append(plan, event{end, evNetHeal, 0})
	}
	if kdsDown {
		plan = append(plan, event{end, evKDSRestart, 0})
	}
	if storeDown {
		plan = append(plan, event{end, evStoreRestart, 0})
	}
	if repDown {
		plan = append(plan, event{end, evReplicaRestart, 0})
	}
	if workerDown {
		plan = append(plan, event{end, evWorkerRestart, 0})
	}
	return plan
}

// hashPlan is the run's reproducibility witness: a digest over the
// seed-derived schedule (and only over it — runtime measurements would
// vary with thread interleaving). Two runs of the same seed and config
// must produce the same hash.
func hashPlan(seed uint64, plan []event) string {
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d\n", seed)
	for _, e := range plan {
		fmt.Fprintf(h, "%s\n", e)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

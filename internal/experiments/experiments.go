// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment id (table1, table2, table3,
// fig4–fig24) maps to a function that builds the right deployment
// (monolithic, disaggregated storage, offloaded compaction), runs the
// paper's workload, and prints the corresponding rows/series.
//
// Absolute numbers differ from the paper (this substrate is a simulator on
// different hardware); the reproduced quantity is the *shape*: which
// variant wins, by roughly what factor, and where the curves converge.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"shield/internal/bench"
	"shield/internal/core"
	"shield/internal/crypt"
	"shield/internal/kds"
	"shield/internal/lsm"
	"shield/internal/vfs"
)

// Options configures a run.
type Options struct {
	// Scale multiplies the baseline operation counts (1.0 ≈ seconds per
	// experiment cell on a laptop; the paper's 50M-op runs correspond to a
	// much larger scale).
	Scale float64

	// Out receives the report; defaults to io.Discard when nil.
	Out io.Writer

	// DiskReadLatency, when set, charges every SST block read in the
	// monolithic experiments with a device latency (e.g. 60µs to emulate
	// the paper's SAS SSD). With it, decryption hides inside read latency
	// as in the paper; at the default 0 the substrate is memory-speed and
	// read overheads are overstated (EXPERIMENTS.md deviation 1).
	DiskReadLatency time.Duration
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

func (o Options) ops(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) error
}

var registry []Experiment

func register(id, title string, run func(Options) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments in paper order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts table1 < table2 < fig4 < ... < fig24 < table3 by paper
// appearance.
func orderKey(id string) int {
	order := []string{
		"table1", "fig4", "table2", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "table3", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
	}
	for i, v := range order {
		if v == id {
			return i
		}
	}
	return len(order)
}

// Run executes one experiment by id.
func Run(id string, opt Options) error {
	opt = opt.withDefaults()
	diskReadLatency = opt.DiskReadLatency
	for _, e := range registry {
		if e.ID == id {
			fmt.Fprintf(opt.Out, "\n=== %s: %s ===\n", e.ID, e.Title)
			start := time.Now()
			if err := e.Run(opt); err != nil {
				return fmt.Errorf("experiment %s: %w", id, err)
			}
			fmt.Fprintf(opt.Out, "--- %s done in %v ---\n", e.ID, time.Since(start).Round(time.Millisecond))
			return nil
		}
	}
	return fmt.Errorf("experiments: unknown id %q", id)
}

// RunAll executes every experiment in paper order.
func RunAll(opt Options) error {
	opt = opt.withDefaults()
	for _, e := range All() {
		if err := Run(e.ID, opt); err != nil {
			return err
		}
	}
	return nil
}

// ---- Deployment/variant plumbing shared by the experiments ----

// variant is one line/bar in a figure: an encryption configuration.
type variant struct {
	name   string
	mode   core.Mode
	walBuf int
	// sstOnly leaves the WAL plaintext (Table 2's middle row).
	sstOnly bool
}

var (
	vNone      = variant{name: "RocksDB", mode: core.ModeNone}
	vEncFS     = variant{name: "EncFS", mode: core.ModeEncFS}
	vShield    = variant{name: "SHIELD", mode: core.ModeSHIELD}
	vEncFSBuf  = variant{name: "EncFS+WAL-Buf", mode: core.ModeEncFS, walBuf: 512}
	vShieldBuf = variant{name: "SHIELD+WAL-Buf", mode: core.ModeSHIELD, walBuf: 512}
)

// monolithVariants are the five configurations of Figures 7–9.
var monolithVariants = []variant{vNone, vEncFS, vShield, vEncFSBuf, vShieldBuf}

// deployment is an opened database plus its teardown.
type deployment struct {
	db      *lsm.DB
	kds     *kds.Store
	cleanup []func()
}

func (d *deployment) Close() {
	if d.db != nil {
		d.db.Close()
	}
	for i := len(d.cleanup) - 1; i >= 0; i-- {
		d.cleanup[i]()
	}
}

// engineOpts returns the benchmark engine tuning: small enough that the
// scaled-down workloads still exercise flush and multi-level compaction.
func engineOpts() lsm.Options {
	return lsm.Options{
		MemtableSize:        1 << 20,
		BaseLevelSize:       4 << 20,
		TargetFileSize:      1 << 20,
		L0CompactionTrigger: 4,
		MaxBackgroundJobs:   2,
	}
}

// openMonolith opens a fresh in-memory monolithic deployment for a variant.
func openMonolith(v variant, opts lsm.Options) (*deployment, error) {
	var fs vfs.FS = vfs.NewMem()
	if diskReadLatency > 0 {
		fs = vfs.NewReadLatency(fs, diskReadLatency)
	}
	return openOn(v, fs, opts, 0)
}

// diskReadLatency is installed from Options by Run/RunAll before
// experiments execute.
var diskReadLatency time.Duration

// openOn opens a deployment for a variant on a given filesystem, with the
// KDS answering after kdsLatency.
func openOn(v variant, fs vfs.FS, opts lsm.Options, kdsLatency time.Duration) (*deployment, error) {
	dep := &deployment{}
	cfg := core.Config{
		Mode:          v.mode,
		FS:            fs,
		WALBufferSize: v.walBuf,
		PlaintextWAL:  v.sstOnly,
	}
	switch v.mode {
	case core.ModeEncFS:
		dek, err := crypt.NewDEK()
		if err != nil {
			return nil, err
		}
		cfg.InstanceDEK = dek
	case core.ModeSHIELD:
		dep.kds = kds.NewStore(kds.Policy{MaxFetches: 1, Latency: kdsLatency})
		cfg.KDS = kds.NewLocal(dep.kds, "bench-server")
	}
	db, err := core.Open("db", cfg, opts)
	if err != nil {
		dep.Close()
		return nil, err
	}
	dep.db = db
	return dep, nil
}

// newBenchKDS returns an in-process KDS service with no synthetic latency.
func newBenchKDS() kds.Service {
	return kds.NewLocal(kds.NewStore(kds.Policy{MaxFetches: 1}), "bench-server")
}

// tempDir makes a scratch directory on the host filesystem for experiments
// that need real file-write costs (Figure 4a).
func tempDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "shield-bench-*") //shield:nofs scratch directory created before any vfs.FS is mounted over it
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil //shield:nofs cleanup of the same pre-FS scratch directory
}

// report prints one result row with an overhead percentage vs a baseline
// throughput (0 baseline prints no comparison).
func report(out io.Writer, r bench.Result, baselineOps float64) {
	if baselineOps > 0 {
		delta := (baselineOps - r.OpsPerSec) / baselineOps * 100
		fmt.Fprintf(out, "  %s  overhead=%+.1f%%\n", r, delta)
		return
	}
	fmt.Fprintf(out, "  %s\n", r)
}

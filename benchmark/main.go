// Command benchmark is the repository's benchmark: four closed-loop workloads
// over the SHIELD stack, with end-to-end metrics from an untraced run and
// per-layer metrics from a separately traced one. README.md in this
// directory describes the workloads and every metric; BENCHMARK.json at the
// repository root is the contract the driver runs it by.
//
//	bash benchmark/run.sh                                   # everything, one JSON document
//	bash benchmark/run.sh --workload ds-ycsbb --trace 1     # one run, one JSON line
//	bash benchmark/run.sh --check-repeat 5                  # run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"shield/internal/core"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches units to exactly the metrics specs names; a metric the
// run did not produce is a bug in the runner, not a zero.
func withUnits(specs []metricSpec, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := got[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		out[s.name] = metricValue{v, s.unit}
	}
	if len(got) != len(specs) {
		return nil, fmt.Errorf("run produced %d metrics, the contract names %d", len(got), len(specs))
	}
	return out, nil
}

// runLine is the contract's result: the last line of standard output.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func lineFor(res *runResult, trace bool) (runLine, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	m, err := withUnits(specs, res.metrics)
	return runLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}, err
}

func parseMode(s string) (core.Mode, error) {
	for _, m := range []core.Mode{core.ModeNone, core.ModeEncFS, core.ModeSHIELD} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown --mode %q (want none, encfs, shield)", s)
}

func printNotes(name string, notes map[string]any) {
	keys := make([]string, 0, len(notes))
	for k := range notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%s: %s: %v\n", name, k, notes[k])
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the contract's result line; empty runs all four, untraced then traced, and prints one document")
		seed     = flag.Uint64("seed", 1789, "the only input of the generators")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "with --workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		modeFlag = flag.String("mode", "shield", "encryption design under test: none, encfs, shield")
		traceOut = flag.String("trace-out", "", "with --workload and --trace 1: write every span to this file as JSON")
		repeat   = flag.Int("check-repeat", 0, "run the untraced set this many times and fail if any end-to-end metric's spread exceeds its bound")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *modeFlag, *traceOut, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace int, modeFlag, traceOut string, repeat int) error {
	mode, err := parseMode(modeFlag)
	if err != nil {
		return err
	}
	if seconds <= 0 || flag.NArg() > 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("usage: --seconds must be positive, --trace 0 or 1, and there are no positional arguments")
	}
	cfg := runConfig{seed: seed, seconds: seconds, mode: mode, scale: 1, setups: 3}
	enc := json.NewEncoder(os.Stdout)

	switch {
	case repeat > 0:
		return checkRepeat(cfg, repeat, enc)

	case workload != "":
		spec := findWorkload(workload)
		if spec == nil {
			return fmt.Errorf("unknown --workload %q", workload)
		}
		cfg.trace, cfg.traceOut = trace == 1, traceOut
		res, err := runWorkload(spec, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		printNotes(spec.name, res.notes)
		line, err := lineFor(res, cfg.trace)
		if err != nil {
			return err
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		if !line.Correct {
			return fmt.Errorf("%s: %d of %d operations failed their check", spec.name, res.failed, res.attempted)
		}
		return nil
	}

	// Everything: each workload untraced, then traced.
	type entry struct {
		Why      string         `json:"why"`
		EndToEnd runLine        `json:"end_to_end"`
		PerLayer runLine        `json:"per_layer"`
		Notes    map[string]any `json:"notes"`
	}
	doc := struct {
		Seed      uint64             `json:"seed"`
		Seconds   float64            `json:"seconds"`
		Mode      string             `json:"mode"`
		Bounds    map[string]float64 `json:"bounds"`
		Workloads map[string]entry   `json:"workloads"`
	}{seed, seconds, mode.String(), map[string]float64{}, map[string]entry{}}
	for _, s := range endToEnd {
		doc.Bounds[s.name] = s.bound
	}
	failed := int64(0)
	for i := range workloads {
		spec := &workloads[i]
		e := entry{Why: spec.why, Notes: map[string]any{}}
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			fmt.Fprintf(os.Stderr, "%s: trace=%v ...\n", spec.name, traced)
			res, err := runWorkload(spec, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.name, err)
			}
			line, err := lineFor(res, traced)
			if err != nil {
				return err
			}
			if traced {
				e.PerLayer = line
			} else {
				e.EndToEnd = line
			}
			for k, v := range res.notes {
				e.Notes[k] = v
			}
			failed += res.failed
		}
		doc.Workloads[spec.name] = e
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their check", failed)
	}
	return nil
}

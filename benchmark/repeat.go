package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// --check-repeat: how far the end-to-end metrics move between runs of the
// same code, by the rule the driver applies — the distance between the first
// and third quartile as a share of the median, against the metric's bound.

// quartiles returns Q1 and Q3 of v as Python's statistics.quantiles(v, n=4)
// computes them (the exclusive method), so the tool and the driver agree on
// small samples.
func quartiles(v []float64) (q1, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (Q3-Q1)/median
	Bound  float64 `json:"bound"`
	OK     bool    `json:"ok"`
}

// checkRepeat runs every workload n times untraced, with the same seed, and
// reports the spread of every end-to-end metric. setup_s is reported but, as
// in the driver, only its median is gated (by comparing two invocations).
func checkRepeat(cfg runConfig, n int, enc *json.Encoder) error {
	out := map[string]map[string]spread{}
	bad := 0
	for i := range workloads {
		spec := &workloads[i]
		values := map[string][]float64{}
		for run := 0; run < n; run++ {
			res, err := runWorkload(spec, cfg)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", spec.name, run+1, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s run %d: %d of %d operations failed their check", spec.name, run+1, res.failed, res.attempted)
			}
			for k, v := range res.metrics {
				values[k] = append(values[k], v)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", spec.name, run+1, n)
		}
		out[spec.name] = map[string]spread{}
		for _, m := range endToEnd {
			q1, q3 := quartiles(values[m.name])
			s := spread{Median: median(values[m.name]), Q1: q1, Q3: q3, Bound: m.bound}
			s.Spread = math.Abs(ratio(q3-q1, s.Median))
			s.OK = s.Spread <= m.bound || m.name == "setup_s"
			verdict := "ok"
			if !s.OK {
				bad++
				verdict = "TOO WIDE"
			}
			out[spec.name][m.name] = s
			fmt.Fprintf(os.Stderr, "%-14s %-10s median %12.4f  iqr/median %6.2f%%  bound %4.0f%%  %s\n",
				spec.name, m.name, s.Median, 100*s.Spread, 100*m.bound, verdict)
		}
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"seed": cfg.seed, "seconds": cfg.seconds, "runs": n, "workloads": out}); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairs spread wider than their bound", bad)
	}
	return nil
}

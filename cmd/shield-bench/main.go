// Command shield-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	shield-bench -experiment fig7            # one experiment
//	shield-bench -experiment all -scale 0.5  # everything, half-size
//	shield-bench -list                       # show experiment ids
//	shield-bench -net :6399 -clients 16      # drive a running shield-server
//
// Each experiment prints the rows/series of the corresponding table or
// figure; see DESIGN.md for the id ↔ artifact mapping and EXPERIMENTS.md
// for recorded paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"

	"shield/internal/bench"
	"shield/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (table1, table2, table3, fig4..fig24) or 'all'")
		scale      = flag.Float64("scale", 1.0, "operation-count multiplier")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		diskLat    = flag.Duration("disk-read-latency", 0, "emulated SSD read latency for monolith experiments (e.g. 60us)")

		netAddr  = flag.String("net", "", "benchmark a running shield-server at this address instead of an in-process engine")
		clients  = flag.Int("clients", 8, "with -net: concurrent client connections")
		pipeline = flag.Int("pipeline", 16, "with -net: commands per pipelined round trip")
		netOps   = flag.Int("ops", 100000, "with -net: total command count across clients")
		valSize  = flag.Int("value-size", 100, "with -net: value size in bytes")
		readPct  = flag.Int("read-pct", 50, "with -net: GET percentage of the mix (0-100)")
	)
	flag.Parse()

	if *netAddr != "" {
		res, err := bench.RunNet(bench.NetWorkload{
			Addr:      *netAddr,
			Clients:   *clients,
			Pipeline:  *pipeline,
			NumOps:    int(float64(*netOps) * *scale),
			ValueSize: *valSize,
			ReadPct:   *readPct,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "shield-bench:", err)
			os.Exit(1)
		}
		fmt.Println(res)
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "usage: shield-bench -experiment <id>|all [-scale N] | shield-bench -list | shield-bench -net ADDR")
		os.Exit(2)
	}

	opt := experiments.Options{Scale: *scale, Out: os.Stdout, DiskReadLatency: *diskLat}
	var err error
	if *experiment == "all" {
		err = experiments.RunAll(opt)
	} else {
		err = experiments.Run(*experiment, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shield-bench:", err)
		os.Exit(1)
	}
}

// Command xmarkbench regenerates the paper's evaluation section: Table 3
// (XMark query times for Pathfinder and the navigational baseline across
// instance sizes), Figure 4 (Pathfinder times normalized to the middle
// size, exposing the linear-vs-quadratic split of §3.4), and the §3.1
// storage-overhead report.
//
// Usage:
//
//	xmarkbench -report table3 -sfs 0.002,0.02,0.2 -budget 30s
//	xmarkbench -report figure4
//	xmarkbench -report storage
//	xmarkbench -report all -queries 8,9,10,11,12
//
// The morsel report sweeps intra-operator worker counts against the
// single-worker physical executor, recording per-query morsel counts.
// -gomaxprocs raises runtime.GOMAXPROCS first, since a sweep recorded at
// gomaxprocs=1 hides every parallel speedup:
//
//	xmarkbench -report morsel -sfs 0.1 -gomaxprocs 8 -worker-sweep 2,4,8 -morsel-out BENCH_morsel.json
//
// The store report measures the persistent columnar format: cold shred of
// auction.xml versus pfstore save + reopen, with a differential query
// check on both stores:
//
//	xmarkbench -report store -sfs 0.1 -store-out BENCH_store.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pathfinder/internal/bench"
	"pathfinder/internal/engine"
)

func main() {
	var (
		report   = flag.String("report", "all", "table3, figure4, storage, csv, morsel, store, or all")
		sfsFlag  = flag.String("sfs", "0.002,0.02,0.2", "comma-separated scale factors (morsel and store reports use the first)")
		queries  = flag.String("queries", "", "comma-separated query numbers (default all 20)")
		budget   = flag.Duration("budget", 30*time.Second, "per-query time budget before DNF")
		baseline = flag.Bool("baseline", true, "run the navigational baseline too")
		optimize = flag.Bool("opt", true, "run plans through the staged optimizer pipeline (opt.Optimize)")
		workers  = flag.Int("workers", engine.EnvWorkers(), "engine worker pool size (0 = GOMAXPROCS; also via PF_WORKERS)")
		repeat   = flag.Int("repeat", 3, "morsel and store reports: timing repetitions (best-of)")
		verbose  = flag.Bool("v", false, "progress output on stderr")

		morselOut  = flag.String("morsel-out", "BENCH_morsel.json", "where -report morsel writes its JSON record")
		sweepFlag  = flag.String("worker-sweep", "", "morsel report: comma-separated worker counts (default 2,4[,GOMAXPROCS])")
		gomaxprocs = flag.Int("gomaxprocs", 0, "raise runtime.GOMAXPROCS before benchmarking (0 = leave as-is)")
		morselRows = flag.Int("morsel-rows", 0, "morsel granularity in rows (0 = engine default)")

		storeOut = flag.String("store-out", "BENCH_store.json", "where -report store writes its JSON record")
	)
	flag.Parse()

	var sfs []float64
	for _, s := range strings.Split(*sfsFlag, ",") {
		sf, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || sf <= 0 {
			fatal("bad scale factor %q", s)
		}
		sfs = append(sfs, sf)
	}
	var qs []int
	if *queries != "" {
		for _, s := range strings.Split(*queries, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || q < 1 || q > 20 {
				fatal("bad query number %q", s)
			}
			qs = append(qs, q)
		}
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	if *report == "morsel" {
		var sweep []int
		if *sweepFlag != "" {
			for _, s := range strings.Split(*sweepFlag, ",") {
				w, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || w < 1 {
					fatal("bad worker count %q", s)
				}
				sweep = append(sweep, w)
			}
		}
		res, err := bench.RunMorsel(bench.MorselConfig{
			SF: sfs[0], Queries: qs, Sweep: sweep,
			Repeat: *repeat, MorselRows: *morselRows, GOMAXPROCS: *gomaxprocs,
			Optimize: *optimize, Verbose: logf,
		})
		if err != nil {
			fatal("%v", err)
		}
		// Unconditionally on stderr (not just -v): a sweep recorded on a
		// host that cannot overlap morsel teams must not be mistaken for
		// the parallelism evaluation.
		if res.CPUCaveat != "" {
			fmt.Fprintf(os.Stderr, "xmarkbench: WARNING: %s\n", res.CPUCaveat)
		}
		fmt.Println(res.MorselTable())
		payload, err := res.JSON()
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*morselOut, append(payload, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *morselOut, err)
		}
		fmt.Printf("wrote %s\n", *morselOut)
		// The sweep doubles as a differential check: any divergence from
		// the single-worker baseline is a correctness bug, not a perf
		// number, so it fails the run (and with it the CI smoke step).
		for _, c := range res.Baseline {
			if c.Err != "" {
				fatal("Q%d baseline: %s", c.Query, c.Err)
			}
		}
		for _, s := range res.Sweeps {
			for _, c := range s.Queries {
				if c.Err != "" {
					fatal("Q%d workers=%d: %s", c.Query, s.Workers, c.Err)
				}
				if !c.Match {
					fatal("Q%d workers=%d: output differs from single-worker baseline", c.Query, s.Workers)
				}
			}
		}
		return
	}

	if *report == "store" {
		res, err := bench.RunStore(bench.StoreConfig{
			SF: sfs[0], Queries: qs, Repeat: *repeat, Verbose: logf,
		})
		if err != nil {
			fatal("%v", err)
		}
		if res.CPUCaveat != "" {
			fmt.Fprintf(os.Stderr, "xmarkbench: WARNING: %s\n", res.CPUCaveat)
		}
		fmt.Println(res.StoreTable())
		payload, err := res.JSON()
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*storeOut, append(payload, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *storeOut, err)
		}
		fmt.Printf("wrote %s\n", *storeOut)
		// A reopened store that answers differently is a format bug, not a
		// perf number; fail the run so the CI smoke step catches it.
		if !res.Match {
			fatal("reopened store results differ from the fresh shred")
		}
		return
	}

	cfg := bench.Config{
		SFs:          sfs,
		Queries:      qs,
		Budget:       *budget,
		WithBaseline: *baseline,
		Optimize:     *optimize,
		Workers:      *workers,
		Verbose:      nil,
	}
	if *verbose {
		cfg.Verbose = logf
	}

	res, err := bench.Run(cfg)
	if err != nil {
		fatal("%v", err)
	}
	switch *report {
	case "table3":
		fmt.Println(res.Table3())
	case "figure4":
		fmt.Println(res.Figure4())
	case "storage":
		fmt.Println(res.Storage())
	case "csv":
		fmt.Print(res.CSV())
	case "all":
		fmt.Println(res.Storage())
		fmt.Println(res.Table3())
		fmt.Println(res.Figure4())
	default:
		fatal("unknown report %q", *report)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xmarkbench: "+format+"\n", args...)
	os.Exit(1)
}

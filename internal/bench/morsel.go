package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// MorselConfig controls the intra-operator parallelism sweep: the same
// physical executor at worker count 1 (the baseline) and at each count in
// Sweep, all over one XMark instance.
type MorselConfig struct {
	SF         float64 // instance size; 0 = 0.1
	Queries    []int   // query numbers; nil = all 20
	Sweep      []int   // worker counts to sweep; nil = {2, 4, GOMAXPROCS}
	Repeat     int     // timing repetitions, best-of; 0 = 3
	MorselRows int     // morsel granularity; 0 = engine default
	GOMAXPROCS int     // when > 0, raise runtime.GOMAXPROCS first
	Optimize   bool    // run plans through the staged optimizer pipeline (opt.Optimize)
	Verbose    func(format string, args ...any)
}

// MorselCell is one query's measurement at one worker count.
type MorselCell struct {
	Query      int     `json:"query"`
	Millis     float64 `json:"ms"`
	Speedup    float64 `json:"speedup"` // vs the single-worker baseline
	Match      bool    `json:"results_match"`
	SplitOps   int     `json:"split_ops"`   // operators that ran as >1 morsel
	Morsels    int     `json:"morsels"`     // total morsels across split operators
	ParWorkers int     `json:"par_workers"` // largest morsel team observed
	Err        string  `json:"err,omitempty"`
}

// MorselSweep is one worker count's full query set.
type MorselSweep struct {
	Workers int          `json:"workers"`
	Queries []MorselCell `json:"queries"`
	Geomean float64      `json:"geomean_speedup"`
}

// MorselBaseCell is the single-worker baseline measurement for one query.
type MorselBaseCell struct {
	Query   int     `json:"query"`
	PlanOps int     `json:"plan_ops"`
	Millis  float64 `json:"ms"`
	Err     string  `json:"err,omitempty"`
}

// MorselResults is the content of BENCH_morsel.json.
type MorselResults struct {
	SF         float64          `json:"sf"`
	XMLBytes   int64            `json:"xml_bytes"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	CPUCaveat  string           `json:"cpu_caveat,omitempty"`
	MorselRows int              `json:"morsel_rows"`
	Baseline   []MorselBaseCell `json:"baseline_workers_1"`
	Sweeps     []MorselSweep    `json:"sweeps"`
}

// cpuCaveat explains why a sweep's speedups are not trustworthy on this
// host, or returns "" when they are. Morsel teams only overlap when the
// scheduler has both the logical processors (GOMAXPROCS) and the physical
// cores (NumCPU) to run them; at 1 of either, every "speedup" measured is
// scheduling noise around 1.0x and the numbers must not be read as the
// parallelism evaluation.
func cpuCaveat(gomaxprocs, numCPU int) string {
	switch {
	case gomaxprocs <= 1:
		return fmt.Sprintf("GOMAXPROCS=%d: morsel teams cannot overlap; speedups here are noise, not evidence (rerun with -gomaxprocs >= 2 on a multi-core host)", gomaxprocs)
	case numCPU <= 1:
		return fmt.Sprintf("num_cpu=%d: single-CPU host; worker teams time-slice one core, so speedups cap near 1.0x (rerun on a multi-core host)", numCPU)
	}
	return ""
}

// RunMorsel times every configured query on the physical executor at one
// worker (morsel parallelism structurally idle: a team of one never
// splits pay-off) and then at each swept worker count, byte-comparing
// every result against the baseline. An untimed traced evaluation per
// (query, workers) records how many operators split and into how many
// morsels — the per-query evidence that the parallel paths actually ran.
func RunMorsel(cfg MorselConfig) (*MorselResults, error) {
	if cfg.SF == 0 {
		cfg.SF = 0.1
	}
	if cfg.Queries == nil {
		for n := 1; n <= xmark.NumQueries; n++ {
			cfg.Queries = append(cfg.Queries, n)
		}
	}
	if cfg.Repeat <= 0 {
		cfg.Repeat = 3
	}
	if cfg.GOMAXPROCS > 0 {
		runtime.GOMAXPROCS(cfg.GOMAXPROCS)
	}
	if cfg.Sweep == nil {
		cfg.Sweep = []int{2, 4}
		if p := runtime.GOMAXPROCS(0); p > 4 {
			cfg.Sweep = append(cfg.Sweep, p)
		}
	}
	logf := cfg.Verbose
	if logf == nil {
		logf = func(string, ...any) {}
	}

	logf("generating XMark instance sf=%g ...", cfg.SF)
	doc := xmark.GenerateString(cfg.SF)
	res := &MorselResults{
		SF: cfg.SF, XMLBytes: int64(len(doc)),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		MorselRows: engine.DefaultMorselRows,
	}
	res.CPUCaveat = cpuCaveat(res.GOMAXPROCS, res.NumCPU)
	if res.CPUCaveat != "" {
		logf("WARNING: %s", res.CPUCaveat)
	}
	if cfg.MorselRows > 0 {
		res.MorselRows = cfg.MorselRows
	}

	store := xenc.NewStore()
	if _, err := store.LoadDocumentString("xmark.xml", doc); err != nil {
		return nil, fmt.Errorf("sf %g: %w", cfg.SF, err)
	}

	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	plans := make(map[int]*algebra.Op, len(cfg.Queries))
	baseOut := make(map[int]string, len(cfg.Queries))
	baseDur := make(map[int]float64, len(cfg.Queries))

	baseEng := engine.NewWithConfig(store, engine.Config{Workers: 1, SeqThreshold: -1, MorselRows: cfg.MorselRows})
	for _, q := range cfg.Queries {
		cell := MorselBaseCell{Query: q}
		plan, _, err := core.CompileQuery(xmark.Query(q), opts)
		if err == nil && cfg.Optimize {
			plan, err = opt.Optimize(plan)
		}
		if err != nil {
			cell.Err = err.Error()
			res.Baseline = append(res.Baseline, cell)
			continue
		}
		plans[q] = plan
		cell.PlanOps = algebra.CountOps(plan)
		out, d, err := timeEval(baseEng, plan, cfg.Repeat)
		if err != nil {
			cell.Err = err.Error()
			res.Baseline = append(res.Baseline, cell)
			continue
		}
		baseOut[q] = out
		cell.Millis = float64(d.Microseconds()) / 1000
		baseDur[q] = d.Seconds()
		logf("Q%-2d workers=1 %8.2fms (baseline)", q, cell.Millis)
		res.Baseline = append(res.Baseline, cell)
	}

	for _, w := range cfg.Sweep {
		sweep := MorselSweep{Workers: w}
		eng := engine.NewWithConfig(store, engine.Config{Workers: w, SeqThreshold: -1, MorselRows: cfg.MorselRows})
		for _, q := range cfg.Queries {
			cell := MorselCell{Query: q}
			plan, ok := plans[q]
			if _, timed := baseDur[q]; !ok || !timed {
				cell.Err = "baseline failed"
				sweep.Queries = append(sweep.Queries, cell)
				continue
			}
			out, d, err := timeEval(eng, plan, cfg.Repeat)
			if err != nil {
				cell.Err = err.Error()
				sweep.Queries = append(sweep.Queries, cell)
				continue
			}
			cell.Millis = float64(d.Microseconds()) / 1000
			if d > 0 {
				cell.Speedup = baseDur[q] / d.Seconds()
			}
			cell.Match = out == baseOut[q]
			// Untimed traced run: per-operator morsel accounting.
			if _, tr, err := eng.EvalTrace(context.Background(), plan); err == nil {
				for _, st := range tr.Stats {
					if st.Morsels > 1 {
						cell.SplitOps++
						cell.Morsels += st.Morsels
						if st.ParWorkers > cell.ParWorkers {
							cell.ParWorkers = st.ParWorkers
						}
					}
				}
			}
			logf("Q%-2d workers=%d %8.2fms speedup=%.2fx split_ops=%d morsels=%d match=%v",
				q, w, cell.Millis, cell.Speedup, cell.SplitOps, cell.Morsels, cell.Match)
			sweep.Queries = append(sweep.Queries, cell)
		}
		sweep.Geomean = morselGeomean(sweep.Queries)
		res.Sweeps = append(res.Sweeps, sweep)
	}
	return res, nil
}

func morselGeomean(cells []MorselCell) float64 {
	sum, n := 0.0, 0
	for _, c := range cells {
		if c.Err != "" || c.Speedup <= 0 {
			continue
		}
		sum += math.Log(c.Speedup)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// JSON renders the results as the BENCH_morsel.json payload.
func (r *MorselResults) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// MorselTable renders the sweep as a human-readable table.
func (r *MorselResults) MorselTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Morsel-driven intra-operator parallelism (sf=%g, %s XML)\n",
		r.SF, fmtBytes(r.XMLBytes))
	fmt.Fprintf(&sb, "GOMAXPROCS=%d, NumCPU=%d, morsel=%d rows\n", r.GOMAXPROCS, r.NumCPU, r.MorselRows)
	if r.CPUCaveat != "" {
		fmt.Fprintf(&sb, "!! %s\n", r.CPUCaveat)
	}
	base := make(map[int]float64, len(r.Baseline))
	for _, c := range r.Baseline {
		base[c.Query] = c.Millis
	}
	for _, s := range r.Sweeps {
		fmt.Fprintf(&sb, "\nworkers=%d\n", s.Workers)
		sb.WriteString("  Q  | base ms  |  par ms  | speedup | split ops | morsels | match\n")
		sb.WriteString("-----+----------+----------+---------+-----------+---------+------\n")
		for _, c := range s.Queries {
			if c.Err != "" {
				fmt.Fprintf(&sb, " %3d | ERR: %s\n", c.Query, c.Err)
				continue
			}
			fmt.Fprintf(&sb, " %3d | %8.2f | %8.2f | %6.2fx | %9d | %7d | %v\n",
				c.Query, base[c.Query], c.Millis, c.Speedup, c.SplitOps, c.Morsels, c.Match)
		}
		fmt.Fprintf(&sb, "geomean speedup: %.2fx\n", s.Geomean)
	}
	return sb.String()
}

// timeEval evaluates the plan repeat times and returns the serialized
// result of the first run plus the best wall time.
func timeEval(eng *engine.Engine, plan *algebra.Op, repeat int) (string, time.Duration, error) {
	var out string
	best := time.Duration(-1)
	for i := 0; i < repeat; i++ {
		start := time.Now()
		t, err := eng.Eval(plan)
		if err != nil {
			return "", 0, err
		}
		s, err := serialize.Result(eng.Store, t)
		if err != nil {
			return "", 0, err
		}
		d := time.Since(start)
		if best < 0 || d < best {
			best = d
		}
		if i == 0 {
			out = s
		}
	}
	return out, best, nil
}

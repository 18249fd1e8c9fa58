package bench

import (
	"encoding/json"
	"fmt"
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

// ParallelConfig controls a sequential-vs-parallel scheduler comparison
// over the XMark workload.
type ParallelConfig struct {
	SF       float64 // instance size; 0 = 0.1
	Queries  []int   // query numbers; nil = all 20
	Workers  int     // parallel pool size; 0 = GOMAXPROCS
	Repeat   int     // timing repetitions, best-of; 0 = 3
	Optimize bool    // run plans through the staged optimizer pipeline (opt.Optimize)
	Verbose  func(format string, args ...any)
}

// ParallelCell is one query's measurement pair.
type ParallelCell struct {
	Query     int     `json:"query"`
	PlanOps   int     `json:"plan_ops"`
	MaxWidth  int     `json:"max_width"` // widest antichain layer: the plan's parallelism ceiling
	SeqMillis float64 `json:"seq_ms"`
	ParMillis float64 `json:"par_ms"`
	Speedup   float64 `json:"speedup"`
	Match     bool    `json:"results_match"` // differential guard: serialized outputs byte-identical
	Err       string  `json:"err,omitempty"`
}

// ParallelResults is the full comparison run — the content of
// BENCH_parallel.json.
type ParallelResults struct {
	SF         float64        `json:"sf"`
	XMLBytes   int64          `json:"xml_bytes"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Workers    int            `json:"workers"`
	Queries    []ParallelCell `json:"queries"`
}

// RunParallel generates one XMark instance and times every configured
// query twice: on the sequential physical executor (Workers=1) and on
// the parallel DAG scheduler with the fallback disabled. Both results are
// serialized and compared byte-for-byte, so the benchmark doubles as a
// differential check.
func RunParallel(cfg ParallelConfig) (*ParallelResults, error) {
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
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	logf := cfg.Verbose
	if logf == nil {
		logf = func(string, ...any) {}
	}

	logf("generating XMark instance sf=%g ...", cfg.SF)
	doc := xmark.GenerateString(cfg.SF)
	res := &ParallelResults{
		SF: cfg.SF, XMLBytes: int64(len(doc)),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workers: cfg.Workers,
	}

	store := xenc.NewStore()
	if _, err := store.LoadDocumentString("xmark.xml", doc); err != nil {
		return nil, fmt.Errorf("sf %g: %w", cfg.SF, err)
	}
	seqEng := engine.NewWithConfig(store, engine.Config{Workers: 1})
	parEng := engine.NewWithConfig(store, engine.Config{Workers: cfg.Workers, SeqThreshold: -1})

	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	for _, q := range cfg.Queries {
		cell := ParallelCell{Query: q}
		plan, _, err := core.CompileQuery(xmark.Query(q), opts)
		if err == nil && cfg.Optimize {
			plan, err = opt.Optimize(plan)
		}
		if err != nil {
			cell.Err = err.Error()
			res.Queries = append(res.Queries, cell)
			continue
		}
		cell.PlanOps = algebra.CountOps(plan)
		cell.MaxWidth = algebra.MaxWidth(plan)

		seqOut, seqD, err := timeEval(seqEng, plan, cfg.Repeat)
		if err != nil {
			cell.Err = "sequential: " + err.Error()
			res.Queries = append(res.Queries, cell)
			continue
		}
		parOut, parD, err := timeEval(parEng, plan, cfg.Repeat)
		if err != nil {
			cell.Err = "parallel: " + err.Error()
			res.Queries = append(res.Queries, cell)
			continue
		}
		cell.SeqMillis = float64(seqD.Microseconds()) / 1000
		cell.ParMillis = float64(parD.Microseconds()) / 1000
		if parD > 0 {
			cell.Speedup = seqD.Seconds() / parD.Seconds()
		}
		cell.Match = seqOut == parOut
		logf("Q%-2d ops=%-3d width=%-2d seq=%7.2fms par=%7.2fms speedup=%.2fx match=%v",
			q, cell.PlanOps, cell.MaxWidth, cell.SeqMillis, cell.ParMillis, cell.Speedup, cell.Match)
		res.Queries = append(res.Queries, cell)
	}
	return res, nil
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

// JSON renders the results as the BENCH_parallel.json payload.
func (r *ParallelResults) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParallelTable renders the comparison as a human-readable table.
func (r *ParallelResults) ParallelTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Parallel DAG scheduler vs sequential evaluator (sf=%g, %s XML)\n",
		r.SF, fmtBytes(r.XMLBytes))
	fmt.Fprintf(&sb, "workers=%d, GOMAXPROCS=%d, NumCPU=%d\n\n", r.Workers, r.GOMAXPROCS, r.NumCPU)
	sb.WriteString("  Q  |  ops | width |   seq ms |   par ms | speedup | match\n")
	sb.WriteString("-----+------+-------+----------+----------+---------+------\n")
	for _, c := range r.Queries {
		if c.Err != "" {
			fmt.Fprintf(&sb, " %3d | ERR: %s\n", c.Query, c.Err)
			continue
		}
		fmt.Fprintf(&sb, " %3d | %4d | %5d | %8.2f | %8.2f | %6.2fx | %v\n",
			c.Query, c.PlanOps, c.MaxWidth, c.SeqMillis, c.ParMillis, c.Speedup, c.Match)
	}
	return sb.String()
}

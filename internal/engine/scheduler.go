package engine

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// This file holds the parallel scheduler's shared pieces: the trace
// records and the worker-pool sizing. The scheduler itself is
// physParallel (physexec.go). The loop-lifting compiler emits plans whose
// independent subplans (the per-branch document steps of a join query,
// the lifted arms of conditionals, the aggregates of a constructor's
// attribute list) share nothing but their leaves, and MonetDB's MIL
// interpreter would happily run them on one core. Here each operator —
// or each discovered operator chain, run back to back — becomes a
// schedulable task: a topological pass assigns dependency counts, leaves
// enter a ready queue, and a bounded worker pool drains it, releasing
// consumers as their last input materializes. Every operator is applied
// exactly once per evaluation, since shared subplans are shared plan
// nodes and hence single scheduler nodes.

// OpStat is the per-operator instrumentation record the scheduler (and
// the sequential executor) attach to a traced evaluation.
type OpStat struct {
	Wall       time.Duration // time spent applying the operator
	RowsIn     int           // total input rows across all inputs
	RowsOut    int           // rows produced
	Worker     int           // worker that ran it (0 on the sequential path)
	Kernel     string        // physical kernel that actually ran
	RowsMat    int           // rows this kernel materialized (gathered/copied), vs. scanned in place
	Morsels    int           // input morsels the kernel split into (0 = unsplit)
	ParWorkers int           // largest morsel team that ran inside the kernel (0 = sequential)
}

// Trace is the full instrumentation record of one evaluation.
type Trace struct {
	mu     sync.Mutex
	Tables map[*algebra.Op]*bat.Table
	Stats  map[*algebra.Op]OpStat
}

func newTrace() *Trace {
	return &Trace{
		Tables: make(map[*algebra.Op]*bat.Table),
		Stats:  make(map[*algebra.Op]OpStat),
	}
}

// recordStat stores scheduling statistics without an intermediate table —
// the physical executor defers table capture until after execution so
// trace-forced materialization never distorts RowsMat accounting.
func (tr *Trace) recordStat(o *algebra.Op, st OpStat) {
	tr.mu.Lock()
	tr.Stats[o] = st
	tr.mu.Unlock()
}

// setTable stores an operator's materialized intermediate result.
func (tr *Trace) setTable(o *algebra.Op, t *bat.Table) {
	tr.mu.Lock()
	tr.Tables[o] = t
	tr.mu.Unlock()
}

// WorkerCount resolves the engine's configured pool size: Workers when
// positive, otherwise GOMAXPROCS.
func (e *Engine) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// EnvWorkers reads the PF_WORKERS environment variable, the
// binary-agnostic way to size the pool (the --workers flags default to
// it). It returns 0 — "use GOMAXPROCS" — when unset or unparsable.
func EnvWorkers() int {
	s := os.Getenv("PF_WORKERS")
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

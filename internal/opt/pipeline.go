package opt

import (
	"fmt"
	"strings"

	"pathfinder/internal/algebra"
)

// The staged rewrite pipeline: an explicit multi-pass driver replacing
// the old single-shot optimizer. Each round runs
//
//	normalize  — CSE + projection fusion/pruning + local order rewrites
//	analyze    — join-graph classification (trace only, no rewrites)
//	isolate    — join graph isolation (in-place order-proof splices)
//
// until a round changes nothing (or maxRounds, a safety net — real plans
// converge in two or three rounds because isolation only ever removes
// numbering operators). Then two final passes run once:
//
//	properties — full re-derivation of order/denseness/key annotations
//	             on the converged plan (what physical lowering consumes)
//	cleanup    — final CSE, the global size guard, and validation
//
// Every pass appends a PassStat; `pf -show opt` prints the trace so the
// collapse is observable per pass, not just in the output plan.

// maxRounds bounds the fixed-point loop. Isolation strictly removes
// operators and normalization never grows the plan (size guard), so the
// loop terminates on its own; the bound is a backstop against a rewrite
// bug turning into an infinite loop.
const maxRounds = 8

// PassStat records one pass execution for the trace.
type PassStat struct {
	// Round is the fixed-point iteration (1-based); 0 marks the final
	// passes that run once after convergence.
	Round int
	// Pass is the pass name: normalize, analyze, isolate, properties,
	// cleanup.
	Pass string
	// OpsIn and OpsOut are the plan's operator counts before and after
	// the pass.
	OpsIn, OpsOut int
	// Rewrites counts the rewrites the pass applied (0 for analysis-only
	// passes).
	Rewrites int
	// Note carries pass-specific detail (the join-graph census, the
	// property count, guard decisions).
	Note string
}

// Result is a pipeline run: the rewritten plan plus the per-pass trace.
type Result struct {
	Plan  *algebra.Op
	Trace []PassStat
}

// TraceString renders the per-pass trace, one line per pass.
func (r Result) TraceString() string {
	var sb strings.Builder
	for _, s := range r.Trace {
		round := "final"
		if s.Round > 0 {
			round = fmt.Sprintf("%d", s.Round)
		}
		fmt.Fprintf(&sb, "round %-5s %-10s %4d → %4d ops", round, s.Pass, s.OpsIn, s.OpsOut)
		if s.Rewrites > 0 {
			fmt.Fprintf(&sb, "  (%d rewrites)", s.Rewrites)
		}
		if s.Note != "" {
			fmt.Fprintf(&sb, "  %s", s.Note)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Pipeline runs the staged pipeline on the DAG rooted at root and
// returns the rewritten plan with its trace. The input DAG is not
// mutated (the isolation pass works on a private clone), and the result
// never has more operators than the CSE-shared input.
func Pipeline(root *algebra.Op) (Result, error) {
	// Baseline for the global size guard; shares nodes with the input.
	initial := cse(root)
	// The isolation pass splices edges in place, and cse/normalize can
	// hand back original input nodes — clone before any in-place work so
	// the caller's DAG stays untouched.
	work := clonePlan(initial)

	var trace []PassStat
	for round := 1; round <= maxRounds; round++ {
		opsIn := algebra.CountOps(work)
		n, err := normalize(work)
		if err != nil {
			return Result{}, err
		}
		work = n
		opsNorm := algebra.CountOps(work)
		trace = append(trace, PassStat{
			Round: round, Pass: "normalize",
			OpsIn: opsIn, OpsOut: opsNorm, Rewrites: opsIn - opsNorm,
		})

		e := NewPropertyEngine()
		g := analyzeJoinGraph(work, e)
		trace = append(trace, PassStat{
			Round: round, Pass: "analyze",
			OpsIn: opsNorm, OpsOut: opsNorm, Note: g.note(),
		})

		iso := isolate(work, e)
		opsIso := algebra.CountOps(work)
		trace = append(trace, PassStat{
			Round: round, Pass: "isolate",
			OpsIn: opsNorm, OpsOut: opsIso, Rewrites: iso,
		})

		if iso == 0 && opsNorm == opsIn {
			break
		}
	}

	// Property re-derivation on the converged plan: a fresh engine, so no
	// claim memoized during rewriting survives into what lowering sees.
	opsConv := algebra.CountOps(work)
	snap := NewPropertyEngine().Snapshot(work)
	trace = append(trace, PassStat{
		Pass: "properties", OpsIn: opsConv, OpsOut: opsConv,
		Note: fmt.Sprintf("%d operators annotated", len(snap)),
	})

	// Cleanup: final CSE across everything isolation exposed, then the
	// global size guard against the CSE-only input.
	final := cse(work)
	note := ""
	if algebra.CountOps(final) > algebra.CountOps(initial) {
		final = initial
		note = "size guard: kept CSE-only plan"
	}
	if err := algebra.Validate(final); err != nil {
		return Result{}, fmt.Errorf("optimizer pipeline produced an invalid plan: %w", err)
	}
	trace = append(trace, PassStat{
		Pass: "cleanup", OpsIn: opsConv, OpsOut: algebra.CountOps(final),
		Rewrites: opsConv - algebra.CountOps(final), Note: note,
	})
	return Result{Plan: final, Trace: trace}, nil
}

// normalize is one CSE + prune/fuse sweep with the per-round size guard
// (no validation — the pipeline validates once at the end).
func normalize(root *algebra.Op) (*algebra.Op, error) {
	shared := cse(root)
	r, err := pruneAndFuse(shared)
	if err != nil {
		return nil, err
	}
	r = cse(r)
	if algebra.CountOps(r) > algebra.CountOps(shared) {
		r = shared
	}
	return r, nil
}

// clonePlan deep-copies the DAG's interior (preserving sharing) so
// in-place passes cannot mutate the caller's plan. Leaves are shared:
// the only in-place mutation anywhere in the pipeline is rewiring an
// operator's In edges, and leaves have none. (Keeping leaves intact also
// preserves the long-standing contract that optimizing a plan that
// reduces to a single literal returns that literal itself.)
func clonePlan(root *algebra.Op) *algebra.Op {
	memo := make(map[*algebra.Op]*algebra.Op)
	var walk func(o *algebra.Op) *algebra.Op
	walk = func(o *algebra.Op) *algebra.Op {
		if len(o.In) == 0 {
			return o
		}
		if c, ok := memo[o]; ok {
			return c
		}
		cp := *o
		cp.In = make([]*algebra.Op, len(o.In))
		for i, in := range o.In {
			cp.In[i] = walk(in)
		}
		memo[o] = &cp
		return &cp
	}
	return walk(root)
}

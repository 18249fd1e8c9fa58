package engine_test

// Chain units: the lowering groups runs of per-row operators into
// physical.FusedChain metadata, and the executor schedules each chain as
// one task whose members run back to back through their ordinary
// kernels. These tests pin what that unit must preserve at every worker
// count: each member is traced like any standalone operator, and an
// error raised inside a chain reads exactly like a standalone one.

import (
	"context"
	"strings"
	"testing"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/physical"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// chainEngine runs every plan on the DAG scheduler (no sequential
// fallback) with tiny morsels, so chain members split into morsel teams.
func chainEngine(workers int) *engine.Engine {
	return engine.NewWithConfig(xenc.NewStore(), engine.Config{
		Workers: workers, SeqThreshold: -1, MorselRows: 7, Check: true,
	})
}

// chainLitPlan builds p = a fun b, keep = p > a, σ keep, π a over an
// n-row literal of two int columns (b alternates 0, 1): one chain of
// four members.
func chainLitPlan(t *testing.T, n int, fun algebra.FunKind) *algebra.Op {
	t.Helper()
	a := make(bat.IntVec, n)
	b := make(bat.IntVec, n)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(i % 2)
	}
	lit := algebra.Lit(bat.MustTable("a", a, "b", b))
	fn, err := algebra.Fun(lit, "p", fun, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := algebra.Fun(fn, "keep", algebra.FunGt, "p", "a")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := algebra.Select(cmp, "keep")
	if err != nil {
		t.Fatal(err)
	}
	pj, err := algebra.Project(sel, "a")
	if err != nil {
		t.Fatal(err)
	}
	return pj
}

// TestChainUnits runs plans with chains at workers ∈ {1,8}.
func TestChainUnits(t *testing.T) {
	t.Run("trace", testChainUnitTrace)
	t.Run("error-prefix", testChainUnitErrorPrefix)
}

// testChainUnitTrace: every node of a plan with chains — interiors
// included — reports a kernel in its trace stat and a trace table
// holding exactly RowsOut rows.
func testChainUnitTrace(t *testing.T) {
	query, _, err := core.CompileQuery(`for $i in 1 to 10000 where $i mod 7 = 0 return $i * 2`, xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if query, err = opt.Optimize(query); err != nil {
		t.Fatal(err)
	}
	plans := map[string]*algebra.Op{
		"range":   query,
		"literal": chainLitPlan(t, 2*physical.ParallelMinRows, algebra.FunAdd),
	}
	for name, root := range plans {
		for _, w := range []int{1, 8} {
			e := chainEngine(w)
			phys := e.Lowered(root)
			if len(phys.Chains) == 0 {
				t.Fatalf("%s: plan has no chains; test premise broken", name)
			}
			_, tr, err := e.EvalTrace(context.Background(), root)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			for _, nd := range phys.Nodes {
				st, ok := tr.Stats[nd.Op]
				if !ok || st.Kernel == "" {
					t.Errorf("%s workers=%d: %s has no traced kernel (stat %+v)", name, w, nd.Op.Kind, st)
					continue
				}
				tab, ok := tr.Tables[nd.Op]
				if !ok || tab == nil {
					t.Errorf("%s workers=%d: %s has no trace table", name, w, nd.Op.Kind)
					continue
				}
				if tab.Rows() != st.RowsOut {
					t.Errorf("%s workers=%d: %s trace table has %d rows, stat says %d",
						name, w, nd.Op.Kind, tab.Rows(), st.RowsOut)
				}
			}
		}
	}
}

// testChainUnitErrorPrefix: integer division by zero inside a chain
// member surfaces with exactly one "<op kind>: " prefix, as it would
// from a standalone operator.
func testChainUnitErrorPrefix(t *testing.T) {
	root := chainLitPlan(t, 2*physical.ParallelMinRows, algebra.FunIDiv)
	for _, w := range []int{1, 8} {
		e := chainEngine(w)
		inChain := false
		for _, ch := range e.Lowered(root).Chains {
			for _, nd := range ch.Nodes {
				inChain = inChain || nd.Op.Fun == algebra.FunIDiv
			}
		}
		if !inChain {
			t.Fatal("the idiv map is not a chain member; test premise broken")
		}
		_, err := e.Eval(root)
		if err == nil {
			t.Fatalf("workers=%d: integer division by zero did not fail", w)
		}
		prefix := algebra.OpFun.String() + ": "
		msg := err.Error()
		if !strings.HasPrefix(msg, prefix) || strings.HasPrefix(msg[len(prefix):], prefix) {
			t.Errorf("workers=%d: error %q, want exactly one %q prefix", w, msg, prefix)
		}
	}
}

// The differentials below run every corpus query twice: on engines that
// schedule each chain as one unit (workers ∈ {1,8}, 7-row morsels), and
// on a single-worker baseline whose cached plans have their Chains
// cleared, so every node is its own unit. physical.Plan documents that
// ignoring Chains executes the identical plan operator by operator;
// these tests hold the executor to that: grouping a chain into one task
// must be unobservable in the output.

var chainWorkerCounts = []int{1, 8}

// docChainEngine is chainEngine with doc loaded under uri.
func docChainEngine(t *testing.T, uri, doc string, workers int) *engine.Engine {
	t.Helper()
	e := chainEngine(workers)
	if _, err := e.Store.LoadDocumentString(uri, doc); err != nil {
		t.Fatal(err)
	}
	return e
}

// unchainedEngine is the node-at-a-time baseline: one worker, runtime
// checks on, and every plan it evaluates through runUnchained.
func unchainedEngine(t *testing.T, uri, doc string) *engine.Engine {
	t.Helper()
	e := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1, Check: true})
	if _, err := e.Store.LoadDocumentString(uri, doc); err != nil {
		t.Fatal(err)
	}
	return e
}

// compileSrc compiles src, optionally through the optimizer.
func compileSrc(src string, opts xqcore.Options, optimize bool) (*algebra.Op, error) {
	plan, _, err := core.CompileQuery(src, opts)
	if err != nil {
		return nil, err
	}
	if optimize {
		if plan, err = opt.Optimize(plan); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// runUnchained evaluates src on e after clearing the Chains of e's
// cached physical plan, so each node runs as its own scheduling unit.
func runUnchained(src string, e *engine.Engine, opts xqcore.Options, optimize bool) (string, error) {
	plan, err := compileSrc(src, opts, optimize)
	if err != nil {
		return "", err
	}
	e.Lowered(plan).Chains = nil
	res, err := e.Eval(plan)
	if err != nil {
		return "", err
	}
	return serialize.Result(e.Store, res)
}

// runChained evaluates src on e with the plan's chains intact.
func runChained(src string, e *engine.Engine, opts xqcore.Options, optimize bool) (string, error) {
	plan, err := compileSrc(src, opts, optimize)
	if err != nil {
		return "", err
	}
	res, err := e.Eval(plan)
	if err != nil {
		return "", err
	}
	return serialize.Result(e.Store, res)
}

// chainDifferential byte-compares every query of srcs, plain and
// optimized, between chain units at each worker count and the unchained
// baseline.
func chainDifferential(t *testing.T, uri, doc string, srcs []string) {
	t.Helper()
	base := unchainedEngine(t, uri, doc)
	engines := make(map[int]*engine.Engine, len(chainWorkerCounts))
	for _, w := range chainWorkerCounts {
		engines[w] = docChainEngine(t, uri, doc, w)
	}
	opts := xqcore.Options{ContextDoc: uri}
	for i, src := range srcs {
		for _, optimize := range []bool{false, true} {
			want, err := runUnchained(src, base, opts, optimize)
			if err != nil {
				t.Errorf("query %d (optimized=%v): unchained baseline: %v", i+1, optimize, err)
				continue
			}
			for _, w := range chainWorkerCounts {
				got, err := runChained(src, engines[w], opts, optimize)
				if err != nil {
					t.Errorf("query %d (optimized=%v) workers=%d: %v", i+1, optimize, w, err)
					continue
				}
				if got != want {
					t.Errorf("query %d (optimized=%v) workers=%d: chain units differ:\n unchained = %.400q\n chained   = %.400q",
						i+1, optimize, w, want, got)
				}
			}
		}
	}
}

// TestXMarkFusionDifferential: all 20 XMark queries, plain and
// optimized, with chains as scheduling units against the unchained
// baseline.
func TestXMarkFusionDifferential(t *testing.T) {
	srcs := make([]string, 0, xmark.NumQueries)
	for n := 1; n <= xmark.NumQueries; n++ {
		srcs = append(srcs, xmark.Query(n))
	}
	chainDifferential(t, "xmark.xml", xmark.GenerateString(diffSF), srcs)
}

// TestDialectFusionDifferential: the Table 2 corpus, chain units against
// the unchained baseline, plain and optimized.
func TestDialectFusionDifferential(t *testing.T) {
	chainDifferential(t, "auction.xml", auctionDoc, dialectQueries)
}

// TestFusionChainsExercised proves the differentials above compare two
// different schedules: some XMark plans at the differential scale carry
// chains, and on the chained engine every member of every chain is
// traced as having run.
func TestFusionChainsExercised(t *testing.T) {
	doc := xmark.GenerateString(diffSF)
	e := docChainEngine(t, "xmark.xml", doc, 8)
	opts := xqcore.Options{ContextDoc: "xmark.xml"}
	chained := 0
	for n := 1; n <= xmark.NumQueries; n++ {
		for _, optimize := range []bool{false, true} {
			plan, err := compileSrc(xmark.Query(n), opts, optimize)
			if err != nil {
				t.Fatalf("Q%d: %v", n, err)
			}
			chains := e.Lowered(plan).Chains
			if len(chains) == 0 {
				continue
			}
			chained++
			_, tr, err := e.EvalTrace(context.Background(), plan)
			if err != nil {
				t.Fatalf("Q%d (optimized=%v): %v", n, optimize, err)
			}
			for _, ch := range chains {
				for _, nd := range ch.Nodes {
					if _, ok := tr.Stats[nd.Op]; !ok {
						t.Errorf("Q%d (optimized=%v): chain %d member %s never ran", n, optimize, ch.ID, nd.Op.Kind)
					}
				}
			}
		}
	}
	if chained == 0 {
		t.Fatal("no XMark plan carries a chain; the differentials are not exercising chain units")
	}
	t.Logf("%d of %d XMark plans carry chains", chained, 2*xmark.NumQueries)
}

// TestFusionTraceAccounting: a chain unit charges each member its own
// work. At every worker count, each member's kernel and row counts
// (in, out, materialized) match what the same node reports when it runs
// as its own unit, and all members of a chain report the same worker —
// the unit held one slot from head to tail.
func TestFusionTraceAccounting(t *testing.T) {
	query, err := compileSrc(`for $i in 1 to 10000 where $i mod 7 = 0 return $i * 2`, xqcore.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	plans := map[string]*algebra.Op{
		"range":   query,
		"literal": chainLitPlan(t, 2*physical.ParallelMinRows, algebra.FunAdd),
	}
	for name, root := range plans {
		base := engine.NewWithConfig(xenc.NewStore(), engine.Config{Workers: 1, Check: true})
		base.Lowered(root).Chains = nil
		_, want, err := base.EvalTrace(context.Background(), root)
		if err != nil {
			t.Fatalf("%s: unchained baseline: %v", name, err)
		}
		for _, w := range chainWorkerCounts {
			e := chainEngine(w)
			chains := e.Lowered(root).Chains
			if len(chains) == 0 {
				t.Fatalf("%s: plan has no chains; test premise broken", name)
			}
			_, tr, err := e.EvalTrace(context.Background(), root)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			for _, ch := range chains {
				worker := tr.Stats[ch.Head().Op].Worker
				for _, nd := range ch.Nodes {
					got, ok := tr.Stats[nd.Op]
					if !ok {
						t.Errorf("%s workers=%d: chain member %s has no stat", name, w, nd.Op.Kind)
						continue
					}
					ref := want.Stats[nd.Op]
					if got.Kernel != ref.Kernel || got.RowsIn != ref.RowsIn ||
						got.RowsOut != ref.RowsOut || got.RowsMat != ref.RowsMat {
						t.Errorf("%s workers=%d: member %s charged kernel=%s in=%d out=%d mat=%d, as its own unit kernel=%s in=%d out=%d mat=%d",
							name, w, nd.Op.Kind, got.Kernel, got.RowsIn, got.RowsOut, got.RowsMat,
							ref.Kernel, ref.RowsIn, ref.RowsOut, ref.RowsMat)
					}
					if got.Worker != worker {
						t.Errorf("%s workers=%d: chain %d member %s ran on worker %d, head on %d",
							name, w, ch.ID, nd.Op.Kind, got.Worker, worker)
					}
				}
			}
		}
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/check"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/opt"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
	"pathfinder/internal/xquery"
)

// The layer probe runs query texts through the same public functions the
// service chains together for a cache miss — xquery.Parse,
// xqcore.Normalize, core.Compile, opt.Optimize, check.Plan,
// Engine.Lowered, Engine.EvalContext, serialize.Result — with a span
// around each call, on a fresh engine at the default worker count over
// the workload's data. It then evaluates the plan once more with
// Engine.EvalTrace on a single-worker engine for the per-operator counts
// and times: at the default worker count, how many rows a kernel
// materializes depends on how its morsels were scheduled (q03, q16 and
// q17 drift under the race detector's timing), while one worker
// materializes the same rows every time and its kernel times add up to
// the work done. It runs after the timed traffic of a traced run.

// probeEngines are the two engines the probe evaluates on.
type probeEngines struct {
	par *engine.Engine // default worker count: timed evaluation
	seq *engine.Engine // one worker: EvalTrace counts and kernel times
}

func newProbeEngines(store *xenc.Store) probeEngines {
	return probeEngines{
		par: engine.NewWithConfig(store, engine.Config{}),
		seq: engine.NewWithConfig(store, engine.Config{Workers: 1}),
	}
}

// compileTimes are one text's per-stage compile durations.
type compileTimes struct {
	parse, normalize, compile, optimize, check, lower time.Duration
}

// probeShape are the exact structural counts of one text's plan.
type probeShape struct {
	coreOps, optOps, nodes, breakers, chains int
}

// probeRun is one text through the whole pipeline.
type probeRun struct {
	compileTimes
	probeShape
	exec, ser time.Duration
	bytesOut  int
	rowsMat   int
	kernelNs  map[string]time.Duration // summed OpStat.Wall per kernel family
	mismatch  bool
}

func probeOne(ctx context.Context, tr *tracer, pe probeEngines, q querySrc) (probeRun, error) {
	var r probeRun
	eng := pe.par
	root := tr.begin("probe", 0, tr.newReq())
	defer root.end()

	sp := root.child("xquery.Parse")
	ast, err := xquery.Parse(q.text)
	r.parse = sp.end()
	if err != nil {
		return r, fmt.Errorf("%s: parse: %w", q.class, err)
	}
	sp = root.child("xqcore.Normalize")
	expr, err := xqcore.Normalize(ast, q.opts)
	r.normalize = sp.end()
	if err != nil {
		return r, fmt.Errorf("%s: normalize: %w", q.class, err)
	}
	sp = root.child("core.Compile")
	plan, err := core.Compile(expr)
	r.compile = sp.end()
	if err != nil {
		return r, fmt.Errorf("%s: compile: %w", q.class, err)
	}
	r.coreOps = algebra.CountOps(plan)
	sp = root.child("opt.Optimize")
	plan, err = opt.Optimize(plan)
	r.optimize = sp.end()
	if err != nil {
		return r, fmt.Errorf("%s: optimize: %w", q.class, err)
	}
	r.optOps = algebra.CountOps(plan)
	sp = root.child("check.Plan")
	err = check.Error(check.Plan(plan))
	r.check = sp.end()
	if err != nil {
		return r, fmt.Errorf("%s: check: %w", q.class, err)
	}
	sp = root.child("engine.Lowered")
	pp := eng.Lowered(plan)
	r.lower = sp.end()
	defer eng.ForgetPlan(plan)
	r.nodes, r.breakers, r.chains = len(pp.Nodes), pp.Breakers(), len(pp.Chains)

	sp = root.child("engine.EvalContext")
	tbl, err := eng.EvalContext(ctx, plan)
	r.exec = sp.end()
	if err != nil {
		return r, fmt.Errorf("%s: eval: %w", q.class, err)
	}
	sp = root.child("serialize.Result")
	out, err := serialize.Result(eng.Store, tbl)
	r.ser = sp.end()
	if err != nil {
		return r, fmt.Errorf("%s: serialize: %w", q.class, err)
	}
	r.bytesOut = len(out)
	r.mismatch = out != q.want

	sp = root.child("engine.EvalTrace")
	_, trc, err := pe.seq.EvalTrace(ctx, plan)
	sp.end()
	pe.seq.ForgetPlan(plan)
	if err != nil {
		return r, fmt.Errorf("%s: traced eval: %w", q.class, err)
	}
	r.kernelNs = map[string]time.Duration{}
	for _, st := range trc.Stats {
		r.rowsMat += st.RowsMat
		r.kernelNs[kernelFamily(st.Kernel)] += st.Wall
	}
	return r, nil
}

// kernelFamilies are the kernel families reported per layer: every
// family that q01–q20 run — and each traced run probes q01–q20 — so each
// reads a measured time. A kernel outside the list counts toward no family
// metric but still toward the per-query execution times.
var kernelFamilies = []string{
	"aggr", "antijoin", "attr", "concat", "distinct", "doc", "elem",
	"filter", "hash-join", "hash-semijoin", "map", "mark", "merge-join",
	"nested-product", "project", "rownum", "scan", "staircase",
}

// kernelFamily strips the variant and type suffixes of a physical kernel
// name ("rownum[sort]" → "rownum", "aggr[count]:int" → "aggr",
// "nested-product:bcast" → "nested-product").
func kernelFamily(k string) string {
	if i := strings.IndexAny(k, "[:"); i >= 0 {
		k = k[:i]
	}
	return k
}

// probeSummary aggregates a probe over reps passes of a text list.
type probeSummary struct {
	times      []compileTimes
	execByCls  map[string][]float64 // class → exec ms per rep
	exec       []float64            // every exec, ms
	serPass    []float64            // serialize ms summed per pass
	kernPass   []map[string]time.Duration
	shape      probeShape     // summed over one pass
	bytesOut   int            // summed over one pass
	rowsMat    map[string]int // class → summed over the class's texts in one pass
	mismatch   int
	countDrift []string // counts that differed between passes
}

// runProbe probes qs reps times. Counts come from the first pass; later
// passes must reproduce them exactly, or the run records the drift.
func runProbe(ctx context.Context, tr *tracer, pe probeEngines, qs []querySrc, reps int) (*probeSummary, error) {
	s := &probeSummary{execByCls: map[string][]float64{}, rowsMat: map[string]int{}}
	for rep := 0; rep < reps; rep++ {
		var (
			shape probeShape
			bytes int
			ser   time.Duration
			rows  = map[string]int{}
			kern  = map[string]time.Duration{}
		)
		for _, q := range qs {
			r, err := probeOne(ctx, tr, pe, q)
			if err != nil {
				return nil, err
			}
			s.times = append(s.times, r.compileTimes)
			s.execByCls[q.class] = append(s.execByCls[q.class], ms(r.exec))
			s.exec = append(s.exec, ms(r.exec))
			ser += r.ser
			shape.coreOps += r.coreOps
			shape.optOps += r.optOps
			shape.nodes += r.nodes
			shape.breakers += r.breakers
			shape.chains += r.chains
			bytes += r.bytesOut
			rows[q.class] += r.rowsMat
			for f, d := range r.kernelNs {
				kern[f] += d
			}
			if r.mismatch {
				s.mismatch++
			}
		}
		s.serPass = append(s.serPass, ms(ser))
		s.kernPass = append(s.kernPass, kern)
		if rep == 0 {
			s.shape, s.bytesOut, s.rowsMat = shape, bytes, rows
			continue
		}
		if shape != s.shape {
			s.countDrift = append(s.countDrift, fmt.Sprintf("plan shape %+v vs %+v", shape, s.shape))
		}
		if bytes != s.bytesOut {
			s.countDrift = append(s.countDrift, fmt.Sprintf("bytes out %d vs %d", bytes, s.bytesOut))
		}
		for c, n := range rows {
			if n != s.rowsMat[c] {
				s.countDrift = append(s.countDrift, fmt.Sprintf("%s rows materialized %d vs %d", c, n, s.rowsMat[c]))
			}
		}
	}
	return s, nil
}

// compileMetrics adds the compile-path layer metrics: per-stage medians
// over every probed text, and the plan-shape counts of one pass.
func (s *probeSummary) compileMetrics(m map[string]metric) {
	var p, n, c, o, k, l []float64
	for _, t := range s.times {
		p = append(p, us(t.parse))
		n = append(n, us(t.normalize))
		c = append(c, us(t.compile))
		o = append(o, ms(t.optimize))
		k = append(k, us(t.check))
		l = append(l, us(t.lower))
	}
	m["xquery.parse_us"] = metric{median(p), "us"}
	m["xqcore.normalize_us"] = metric{median(n), "us"}
	m["core.compile_us"] = metric{median(c), "us"}
	m["opt.optimize_ms"] = metric{median(o), "ms"}
	m["check.plan_us"] = metric{median(k), "us"}
	m["physical.lower_us"] = metric{median(l), "us"}
	m["core.ops"] = metric{float64(s.shape.coreOps), "count"}
	m["opt.ops_out"] = metric{float64(s.shape.optOps), "count"}
	m["physical.nodes"] = metric{float64(s.shape.nodes), "count"}
	m["physical.breakers"] = metric{float64(s.shape.breakers), "count"}
	m["physical.fused_chains"] = metric{float64(s.shape.chains), "count"}
}

// engineMetrics adds the aggregate execution and serialization
// metrics of the probed texts.
func (s *probeSummary) engineMetrics(m map[string]metric) {
	m["engine.exec_ms_p50"] = metric{median(s.exec), "ms"}
	m["serialize.ms"] = metric{median(s.serPass), "ms"}
	m["serialize.bytes_out"] = metric{float64(s.bytesOut), "count"}
}

// queryMetrics adds per-class execution times and materialized rows for
// qs, and the per-pass kernel-family times.
func (s *probeSummary) queryMetrics(m map[string]metric, qs []querySrc) {
	for _, q := range qs {
		m["engine.exec_ms."+q.class] = metric{median(s.execByCls[q.class]), "ms"}
		m["engine.rows_materialized."+q.class] = metric{float64(s.rowsMat[q.class]), "count"}
	}
	for _, f := range kernelFamilies {
		var per []float64
		for _, k := range s.kernPass {
			per = append(per, ms(k[f]))
		}
		m["engine.kernel_ms."+f] = metric{median(per), "ms"}
	}
}

// storeDoc is one document the store probe puts.
type storeDoc struct {
	uri, xml string
}

// storeSummary is what the store probe measured.
type storeSummary struct {
	shred      []float64 // ms per ReplaceDocument
	shredMBps  []float64
	put        []float64 // ms per Catalog.Put
	open       []float64 // ms per pfstore.Open
	writtenPer float64   // file bytes written per XML byte of the document put (last put)
	filePer    float64   // file bytes per XML byte of the whole collection
	storagePer float64   // in-memory encoding bytes per XML byte of the whole collection
}

// runStoreProbe persists documents the way PUT /collections does —
// Catalog.Collection, xenc.NewStoreFromParts, Store.ReplaceDocument,
// Catalog.Put — into a fresh catalog under dir: first the initial
// documents (untimed), then each timed document, and reopens the file
// with pfstore.Open after every timed put.
func runStoreProbe(tr *tracer, dir string, initial, timed []storeDoc) (*storeSummary, error) {
	cat, err := pfstore.OpenCatalog(dir)
	if err != nil {
		return nil, err
	}
	const name = "probe"
	path := filepath.Join(dir, name+".pfc")
	s := &storeSummary{}
	contents := map[string]int{} // uri → XML bytes currently in the collection
	put := func(d storeDoc, timedPut bool) error {
		t := tr
		if !timedPut {
			t = nil // the initial documents are set-up, not measured
		}
		root := t.begin("store.put", 0, t.newReq())
		defer root.end()
		work := xenc.NewStore()
		if base, _, err := cat.Collection(name); err == nil {
			if work, err = xenc.NewStoreFromParts(base.Parts()); err != nil {
				return fmt.Errorf("clone collection: %w", err)
			}
		} else if !errors.Is(err, pfstore.ErrNotFound) {
			return err
		}
		sp := root.child("xenc.ReplaceDocument")
		if _, err := work.ReplaceDocument(d.uri, strings.NewReader(d.xml)); err != nil {
			return fmt.Errorf("shred %s: %w", d.uri, err)
		}
		shred := sp.end()
		sp = root.child("pfstore.Catalog.Put")
		if _, err := cat.Put(name, work); err != nil {
			return fmt.Errorf("put %s: %w", d.uri, err)
		}
		putD := sp.end()
		contents[d.uri] = len(d.xml)
		if !timedPut {
			return nil
		}
		sp = root.child("pfstore.Open")
		reopened, _, err := pfstore.Open(path)
		openD := sp.end()
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if len(reopened.DocURIs()) != len(contents) {
			return fmt.Errorf("reopened collection holds %d documents, want %d", len(reopened.DocURIs()), len(contents))
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		total := 0
		for _, n := range contents {
			total += n
		}
		s.shred = append(s.shred, ms(shred))
		s.shredMBps = append(s.shredMBps, float64(len(d.xml))/1e6/shred.Seconds())
		s.put = append(s.put, ms(putD))
		s.open = append(s.open, ms(openD))
		s.writtenPer = float64(st.Size()) / float64(len(d.xml))
		s.filePer = float64(st.Size()) / float64(total)
		s.storagePer = float64(work.Report().Total()) / float64(total)
		return nil
	}
	for _, d := range initial {
		if err := put(d, false); err != nil {
			return nil, err
		}
	}
	for _, d := range timed {
		if err := put(d, true); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// metrics adds the shred and persistence layer metrics.
func (s *storeSummary) metrics(m map[string]metric) {
	m["xenc.shred_ms"] = metric{median(s.shred), "ms"}
	m["xenc.shred_mb_per_s"] = metric{median(s.shredMBps), "MB/s"}
	m["xenc.storage_bytes_per_xml_byte"] = metric{s.storagePer, "ratio"}
	m["pfstore.put_ms_p50"] = metric{median(s.put), "ms"}
	m["pfstore.open_ms"] = metric{median(s.open), "ms"}
	m["pfstore.bytes_written_per_xml_byte"] = metric{s.writtenPer, "ratio"}
	m["pfstore.file_bytes_per_xml_byte"] = metric{s.filePer, "ratio"}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// layerProbe runs the compile/execute probe over own, the workload's
// texts, and over xq, q01–q20 on the workload's data (nil when own is
// q01–q20 already), then the store probe, adding every per-layer metric
// to out. The compile-path and aggregate engine metrics describe own;
// the per-query and per-kernel metrics describe q01–q20.
func layerProbe(ctx context.Context, out *outcome, store *xenc.Store, own, xq []querySrc, dir string, initial, timed []storeDoc) error {
	pe := newProbeEngines(store)
	ps, err := runProbe(ctx, out.tracer, pe, own, probeReps)
	if err != nil {
		return err
	}
	probes := []*probeSummary{ps}
	xs := ps
	if xq != nil {
		if xs, err = runProbe(ctx, out.tracer, pe, xq, probeReps); err != nil {
			return err
		}
		probes = append(probes, xs)
	} else {
		xq = own
	}
	ps.compileMetrics(out.layers)
	ps.engineMetrics(out.layers)
	xs.queryMetrics(out.layers, xq)
	for _, s := range probes {
		out.attempted += int64(len(s.times))
		out.fail(int64(s.mismatch), "layer probe: output differs from navdom")
		out.fail(int64(len(s.countDrift)), "layer probe: exact counts drifted between passes: %v", s.countDrift)
	}

	ss, err := runStoreProbe(out.tracer, filepath.Join(dir, "store-probe"), initial, timed)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	ss.metrics(out.layers)
	return nil
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
)

// xmark-suite: q01–q20 on one SF 0.1 document, in whole passes of a
// seeded order, from one closed-loop client calling service.Query in
// process. Set-up prepares every plan, so timed requests hit the
// prepared-plan cache and the run measures execution and serialization.

const suiteSetupReps = 5

// probeReps is how many passes the layer probe makes over its texts.
const probeReps = 3

func runSuite(ctx context.Context, o options) (*outcome, error) {
	doc := xmark.GenerateString(suiteSF)
	qs := xmarkQueries(suiteURI)
	if err := computeOracle(map[string]string{suiteURI: doc}, qs); err != nil {
		return nil, err
	}
	out := &outcome{e2e: map[string]metric{}, layers: map[string]metric{}, record: map[string]any{
		"input_bytes": map[string]int{suiteURI: len(doc)},
	}}
	if o.trace {
		out.tracer = newTracer()
	}
	out.record["peak_rss_reset"] = resetPeakRSS()
	host := stampHost()

	setupS, svc, err := setupReps(suiteSetupReps, func() (*service.Service, error) {
		store := xenc.NewStore()
		sp := out.tracer.begin("xenc.LoadDocumentString", 0, out.tracer.newReq())
		_, err := store.LoadDocumentString(suiteURI, doc)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("shred: %w", err)
		}
		svc := service.New(store, service.Config{})
		for _, q := range qs {
			out.attempted++
			resp, err := svc.Query(ctx, service.Request{Query: q.text, ContextDoc: suiteURI})
			if err != nil {
				out.fail(1, "%s warm-up: %v", q.class, err)
				continue
			}
			if resp.Result != q.want {
				out.fail(1, "%s warm-up: output differs from navdom", q.class)
			}
		}
		return svc, nil
	}, func(*service.Service) error { return nil })
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = metric{setupS, "s"}
	out.record["host_setup"] = stampHost().since(host)
	host = stampHost()

	order := rand.New(rand.NewSource(o.seed))
	pass := func(tr *tracer, budget time.Duration) readSet {
		var (
			s   readSet
			win windows
		)
		win.begin()
		start := time.Now()
		for time.Since(start) < budget {
			passStart := time.Now()
			for _, i := range order.Perm(len(qs)) {
				q := qs[i]
				sp := tr.begin("service.Query", 0, tr.newReq())
				resp, err := svc.Query(ctx, service.Request{Query: q.text, ContextDoc: suiteURI})
				rd := read{class: q.class, lat: sp.end(), status: http.StatusOK, win: len(s.winSecs)}
				switch {
				case err != nil:
					rd.status = 0
				case resp.Result != q.want:
					rd.status = -1
				default:
					rd.stats = resp.Stats
				}
				s.reads = append(s.reads, rd)
			}
			s.winSecs = append(s.winSecs, time.Since(passStart).Seconds())
			win.cut() // one window per pass: each holds one q11
		}
		s.elapsed, s.rss, s.cpu = time.Since(start), win.peaks, win.cpu
		countReads(out, s)
		return s
	}

	budget := time.Duration(o.seconds) * time.Second
	if !o.trace {
		s := pass(nil, budget)
		readMetrics(out.e2e, s)
		out.record["host_timed"] = stampHost().since(host)
		out.record["passes"] = len(s.reads) / len(qs)
		return out, nil
	}

	untraced := pass(nil, budget/2)
	before := svc.Stats()
	traced := pass(out.tracer, budget/2)
	serviceMetrics(out.layers, traced, before, svc.Stats())
	overheadMetric(out, untraced, traced)

	d := storeDoc{suiteURI, doc}
	if err := layerProbe(ctx, out, svc.Engine().Store, qs, nil, o.workDir, nil, []storeDoc{d, d, d}); err != nil {
		return nil, err
	}
	return out, nil
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
)

// point-adhoc: POST /query over loopback HTTP from two closed-loop
// clients, each request a point lookup drawn from a pool of 2048
// distinct texts, eight times the prepared-plan capacity, so most
// requests compile. The SF 0.1 document of xmark-suite is the data.

const (
	adhocClients   = 2
	adhocSetupReps = 9
)

func runAdhoc(ctx context.Context, o options) (*outcome, error) {
	doc := xmark.GenerateString(suiteSF)
	docs := map[string]string{suiteURI: doc}
	pool := adhocPool(o.seed)
	if err := computeOracle(docs, pool); err != nil {
		return nil, err
	}
	var xq []querySrc
	if o.trace {
		xq = xmarkQueries(suiteURI)
		if err := computeOracle(docs, xq); err != nil {
			return nil, err
		}
	}
	out := &outcome{e2e: map[string]metric{}, layers: map[string]metric{}, record: map[string]any{
		"input_bytes":  map[string]int{suiteURI: len(doc)},
		"pool_texts":   len(pool),
		"pool_bytes":   poolBytes(pool),
		"http_clients": adhocClients,
	}}
	if o.trace {
		out.tracer = newTracer()
	}
	out.record["peak_rss_reset"] = resetPeakRSS()
	host := stampHost()

	type env struct {
		svc *service.Service
		web *httpEnv
	}
	setupS, e, err := setupReps(adhocSetupReps, func() (env, error) {
		store := xenc.NewStore()
		sp := out.tracer.begin("xenc.LoadDocumentString", 0, out.tracer.newReq())
		_, err := store.LoadDocumentString(suiteURI, doc)
		sp.end()
		if err != nil {
			return env{}, fmt.Errorf("shred: %w", err)
		}
		svc := service.New(store, service.Config{})
		web, err := startHTTP(svc.Handler())
		if err != nil {
			return env{}, err
		}
		// Warm the wire and each template's code path with the first text
		// of every class.
		c := newClient()
		defer c.CloseIdleConnections()
		for i := range adhocTemplates {
			q := pool[i]
			rd := postQuery(ctx, c, web.base, queryBody{Query: q.text, Doc: suiteURI})
			out.attempted++
			switch {
			case rd.status != http.StatusOK:
				out.fail(1, "%s warm-up: status %d", q.class, rd.status)
			case rd.result != q.want:
				out.fail(1, "%s warm-up: output differs from navdom", q.class)
			}
		}
		return env{svc, web}, nil
	}, func(e env) error { return e.web.close() })
	if err != nil {
		return nil, err
	}
	defer e.web.close() //nolint:errcheck — shutdown errors after the run change nothing reported
	out.e2e["setup_s"] = metric{setupS, "s"}
	out.record["host_setup"] = stampHost().since(host)
	host = stampHost()

	rngs := make([]*rand.Rand, adhocClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(o.seed*1000 + int64(i) + 1))
	}
	phase := func(tr *tracer, budget time.Duration) readSet {
		var (
			wg  sync.WaitGroup
			per = make([][]read, adhocClients)
		)
		var win windows
		win.begin()
		start := time.Now()
		deadline := start.Add(budget)
		winSecs, windowOf := secondWindows(start, budget)
		for ci := 0; ci < adhocClients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c := newClient()
				defer c.CloseIdleConnections()
				for time.Now().Before(deadline) {
					q := pool[rngs[ci].Intn(len(pool))]
					sp := tr.begin("http.POST /query", 0, tr.newReq())
					rd := postQuery(ctx, c, e.web.base, queryBody{Query: q.text, Doc: suiteURI})
					sp.end()
					rd.class, rd.win = q.class, windowOf(time.Now())
					if rd.status == http.StatusOK && rd.result != q.want {
						rd.status = -1
					}
					rd.result = ""
					per[ci] = append(per[ci], rd)
				}
			}(ci)
		}
		win.tick(start, deadline, time.Second)
		wg.Wait()
		s := readSet{elapsed: time.Since(start), winSecs: winSecs, rss: win.peaks, cpu: win.cpu}
		for _, rs := range per {
			s.reads = append(s.reads, rs...)
		}
		countReads(out, s)
		return s
	}

	budget := time.Duration(o.seconds) * time.Second
	if !o.trace {
		s := phase(nil, budget)
		readMetrics(out.e2e, s)
		out.record["host_timed"] = stampHost().since(host)
		return out, nil
	}
	untraced := phase(nil, budget/2)
	before := e.svc.Stats()
	traced := phase(out.tracer, budget/2)
	serviceMetrics(out.layers, traced, before, e.svc.Stats())
	overheadMetric(out, untraced, traced)

	// The probe's own texts are the first 64 of the pool — a fixed,
	// seeded sample, so its exact counts repeat for a seed.
	d := storeDoc{suiteURI, doc}
	if err := layerProbe(ctx, out, e.svc.Engine().Store, pool[:64], xq, o.workDir, nil, []storeDoc{d, d, d}); err != nil {
		return nil, err
	}
	return out, nil
}

// countReads adds a phase's reads to the attempted and failed totals.
// status 0 is a transport error, -1 an output mismatch.
func countReads(out *outcome, s readSet) {
	var bad, mismatch int64
	for _, r := range s.reads {
		switch {
		case r.status == -1:
			mismatch++
		case r.status != http.StatusOK:
			bad++
		}
	}
	out.attempted += int64(len(s.reads))
	out.fail(bad, "read failed (non-200 status or transport error)")
	out.fail(mismatch, "read output differs from navdom")
}

func poolBytes(qs []querySrc) int {
	n := 0
	for _, q := range qs {
		n += len(q.text)
	}
	return n
}

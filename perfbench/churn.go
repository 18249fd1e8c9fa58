package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/navdom"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/serialize"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// collection-churn: a persistent collection of four documents, reopened
// from disk at set-up, served over HTTP to one closed-loop reader while
// one open-loop writer replaces a document twice a second. Every write
// re-shreds the document, rewrites and fsyncs the whole collection file
// and its directory (pfstore.Save), bumps the generation and so
// invalidates every prepared plan; reads after a write recompile.

const (
	churnSetupReps = 7
	churnWriteRate = 2 // writes per second
)

// write is one PUT as the writer saw it.
type write struct {
	w        churnWrite
	due      time.Time
	lat      time.Duration // from due time to the last response byte
	lateness time.Duration // from due time to the send
	status   int
}

func runChurn(ctx context.Context, o options) (*outcome, error) {
	interval := time.Second / churnWriteRate
	maxWrites := o.seconds*churnWriteRate + 2
	in := newChurnInputs(o.seed, maxWrites)
	initial := in.docsAt([churnDocs]int{})
	var xq []querySrc
	if o.trace {
		// Probe oracle: the reads and q01–q20 over the initial documents,
		// which is what the probe's fresh store holds.
		xq = xmarkQueries(churnURI(0))
		if err := computeOracle(initial, xq); err != nil {
			return nil, err
		}
	}
	sizes := map[string]int{}
	for d := range in.versions {
		for v, x := range in.versions[d] {
			sizes[fmt.Sprintf("%s#v%d", churnURI(d), v)] = len(x)
		}
	}
	out := &outcome{e2e: map[string]metric{}, layers: map[string]metric{}, record: map[string]any{
		"input_bytes":     sizes,
		"read_texts":      len(in.reads),
		"write_interval":  interval.String(),
		"flush_policy":    "pfstore.Save: write temp file, fsync file, rename, fsync directory; whole collection per PUT",
		"reader_clients":  1,
		"writer_schedule": "open loop, one sender",
	}}
	if o.trace {
		out.tracer = newTracer()
	}

	// The catalog is written before set-up, through the service's own PUT
	// path, so set-up reopens it from disk.
	catDir := filepath.Join(o.workDir, "catalog")
	{
		cat, err := pfstore.OpenCatalog(catDir)
		if err != nil {
			return nil, err
		}
		svc := service.New(xenc.NewStore(), service.Config{Catalog: cat})
		for d := 0; d < churnDocs; d++ {
			if _, err := svc.PutDocument(churnCollection, churnURI(d), strings.NewReader(initial[churnURI(d)])); err != nil {
				return nil, fmt.Errorf("initial put: %w", err)
			}
		}
	}
	const initialPuts = churnDocs
	out.record["peak_rss_reset"] = resetPeakRSS()
	host := stampHost()

	type env struct {
		svc *service.Service
		web *httpEnv
	}
	setupS, e, err := setupReps(churnSetupReps, func() (env, error) {
		cat, err := pfstore.OpenCatalog(catDir)
		if err != nil {
			return env{}, err
		}
		sp := out.tracer.begin("pfstore.Catalog.Collection", 0, out.tracer.newReq())
		_, _, err = cat.Collection(churnCollection)
		sp.end()
		if err != nil {
			return env{}, fmt.Errorf("reopen collection: %w", err)
		}
		svc := service.New(xenc.NewStore(), service.Config{Catalog: cat})
		web, err := startHTTP(svc.Handler())
		if err != nil {
			return env{}, err
		}
		c := newClient()
		defer c.CloseIdleConnections()
		for _, q := range in.reads {
			rd := postQuery(ctx, c, web.base, queryBody{Query: q.text, Collection: churnCollection})
			out.attempted++
			if rd.status != http.StatusOK {
				out.fail(1, "%s warm-up: status %d", q.class, rd.status)
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

	var (
		acked  int
		state  [churnDocs]int // version of each document after the acknowledged writes
		writes []write
		next   int // index into in.writes
	)
	phase := func(tr *tracer, budget time.Duration) readSet {
		var (
			wg     sync.WaitGroup
			reads  []read
			phaseW []write
		)
		var win windows
		win.begin()
		start := time.Now()
		deadline := start.Add(budget)
		winSecs, windowOf := secondWindows(start, budget)
		wg.Add(2)
		go func() { // reader: closed loop over the fixed texts
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := 0; time.Now().Before(deadline); i++ {
				q := in.reads[i%len(in.reads)]
				sp := tr.begin("http.POST /query", 0, tr.newReq())
				rd := postQuery(ctx, c, e.web.base, queryBody{Query: q.text, Collection: churnCollection})
				sp.end()
				rd.class, rd.win = q.class, windowOf(time.Now())
				reads = append(reads, rd)
			}
		}()
		go func() { // writer: open loop, one PUT due every interval
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * interval)
				if !due.Before(deadline) || next+k >= len(in.writes) {
					return
				}
				time.Sleep(time.Until(due))
				sp := tr.begin("http.PUT /collections", 0, tr.newReq())
				w := putDoc(ctx, c, e.web.base, in, in.writes[next+k], due)
				sp.end()
				phaseW = append(phaseW, w)
			}
		}()
		win.tick(start, deadline, time.Second)
		wg.Wait()
		s := readSet{reads: reads, elapsed: time.Since(start), winSecs: winSecs, rss: win.peaks, cpu: win.cpu}
		countReads(out, s)
		next += len(phaseW)
		for _, w := range phaseW {
			out.attempted++
			if w.status != http.StatusOK {
				out.fail(1, "PUT %s: status %d", churnURI(w.w.doc), w.status)
				continue
			}
			acked++
			state[w.w.doc] = w.w.ver
		}
		writes = append(writes, phaseW...)
		return s
	}

	budget := time.Duration(o.seconds) * time.Second
	var s readSet
	if !o.trace {
		s = phase(nil, budget)
		readMetrics(out.e2e, s)
	} else {
		untraced := phase(nil, budget/2)
		before := e.svc.Stats()
		s = phase(out.tracer, budget/2)
		serviceMetrics(out.layers, s, before, e.svc.Stats())
		overheadMetric(out, untraced, s)
	}
	out.record["host_timed"] = stampHost().since(host)
	writeRecord(out, writes)

	// Quiesced: both clients have returned. Every read text must match
	// navdom over the final documents, and a fresh catalog over the same
	// directory must hold every acknowledged write.
	final := in.docsAt(state)
	reads := make([]querySrc, len(in.reads))
	copy(reads, in.reads)
	if err := computeOracle(final, reads); err != nil {
		return nil, err
	}
	c := newClient()
	for _, q := range reads {
		rd := postQuery(ctx, c, e.web.base, queryBody{Query: q.text, Collection: churnCollection})
		out.attempted++
		switch {
		case rd.status != http.StatusOK:
			out.fail(1, "%s after quiesce: status %d", q.class, rd.status)
		case rd.result != q.want:
			out.fail(1, "%s after quiesce: output differs from navdom over the final documents", q.class)
		}
	}
	c.CloseIdleConnections()
	if err := checkDurable(ctx, out, catDir, initialPuts+acked, final); err != nil {
		return nil, err
	}

	if o.trace {
		if err := churnProbe(ctx, out, in, initial, xq, o.workDir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// putDoc sends one scheduled PUT, timing it from its due time.
func putDoc(ctx context.Context, c *http.Client, base string, in *churnInputs, w churnWrite, due time.Time) write {
	res := write{w: w, due: due}
	url := fmt.Sprintf("%s/collections/%s?doc=%s", base, churnCollection, churnURI(w.doc))
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader([]byte(in.versions[w.doc][w.ver])))
	if err != nil {
		return res
	}
	res.lateness = time.Since(due)
	resp, err := c.Do(req)
	if err == nil {
		var body service.CollectionResult
		err = json.NewDecoder(resp.Body).Decode(&body)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for keep-alive only
		resp.Body.Close()
		res.status = resp.StatusCode
		if err != nil && resp.StatusCode == http.StatusOK {
			res.status = 0
		}
	}
	res.lat = time.Since(due)
	return res
}

// writeRecord stamps the writer's latency and lateness into the record.
func writeRecord(out *outcome, ws []write) {
	var lat []float64
	lateMax := 0.0
	for _, w := range ws {
		if w.status == http.StatusOK {
			lat = append(lat, ms(w.lat))
		}
		lateMax = max(lateMax, ms(w.lateness))
	}
	out.record["writes"] = len(ws)
	out.record["write_p50_ms"] = median(lat)
	out.record["writer_lateness_ms_max"] = lateMax
}

// checkDurable reopens the catalog directory with a fresh Catalog and
// checks that it holds exactly what the acknowledged writes left: the
// generation, the document set, and each document's content, compared
// through the relational engine against navdom.
func checkDurable(ctx context.Context, out *outcome, dir string, wantGen int, final map[string]string) error {
	cat, err := pfstore.OpenCatalog(dir)
	if err != nil {
		return err
	}
	store, gen, err := cat.Collection(churnCollection)
	out.attempted++
	if err != nil {
		out.fail(1, "durability: reopen: %v", err)
		return nil
	}
	if int(gen) != wantGen {
		out.fail(1, "durability: generation %d, want %d (initial puts + acknowledged writes)", gen, wantGen)
	}
	uris := store.DocURIs()
	sort.Strings(uris)
	want := sortedKeys(final)
	if strings.Join(uris, ",") != strings.Join(want, ",") {
		out.fail(1, "durability: documents %v, want %v", uris, want)
		return nil
	}
	db, err := newOracleDB(final)
	if err != nil {
		return err
	}
	eng := engine.NewWithConfig(store, engine.Config{})
	for _, u := range uris {
		q := fmt.Sprintf(`doc(%q)`, u)
		out.attempted++
		plan, _, err := core.CompileQuery(q, xqcore.Options{})
		if err != nil {
			return fmt.Errorf("durability query: %w", err)
		}
		tbl, err := eng.EvalContext(ctx, plan)
		if err != nil {
			out.fail(1, "durability: read %s: %v", u, err)
			continue
		}
		got, err := serialize.Result(store, tbl)
		if err != nil {
			return err
		}
		nav, err := navdom.NewInterp(db).Run(q, xqcore.Options{})
		if err != nil {
			return err
		}
		if got != nav {
			out.fail(1, "durability: %s content differs from the last acknowledged version", u)
		}
	}
	return nil
}

// churnProbe runs the layer probe over the read texts and q01–q20 on a
// fresh store of the initial documents, and the store probe through the
// writer's path: the initial documents, then one replacement per
// document.
func churnProbe(ctx context.Context, out *outcome, in *churnInputs, initial map[string]string, xq []querySrc, dir string) error {
	reads := make([]querySrc, len(in.reads))
	copy(reads, in.reads)
	if err := computeOracle(initial, reads); err != nil {
		return err
	}
	store := xenc.NewStore()
	var init, timed []storeDoc
	for d := 0; d < churnDocs; d++ {
		u := churnURI(d)
		if _, err := store.LoadDocumentString(u, initial[u]); err != nil {
			return err
		}
		init = append(init, storeDoc{u, initial[u]})
		timed = append(timed, storeDoc{u, in.versions[d][1]})
	}
	return layerProbe(ctx, out, store, reads, xq, dir, init, timed)
}

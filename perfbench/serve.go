package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pathfinder/internal/service"
)

// httpEnv is the service's HTTP front door on a loopback listener.
type httpEnv struct {
	srv  *http.Server
	base string
	done chan error // Serve's return value
}

func startHTTP(h http.Handler) (*httpEnv, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &httpEnv{srv: &http.Server{Handler: h}, base: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- e.srv.Serve(l) }()
	return e, nil
}

// close shuts the server down and waits for Serve to return.
func (e *httpEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient is one benchmark client's HTTP client: keep-alive on, no
// compression, one idle connection per client.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// queryBody is the POST /query request.
type queryBody struct {
	Query      string `json:"query"`
	Doc        string `json:"doc,omitempty"`
	Collection string `json:"collection,omitempty"`
}

// read is one completed read request as the client saw it.
type read struct {
	class  string
	lat    time.Duration
	status int // 0 = transport error, -1 = output differs from the oracle
	result string
	stats  service.RequestStats
	win    int // measurement window the read completed in; -1 = after the last full one
}

// postQuery sends one POST /query and times it up to the last body byte.
func postQuery(ctx context.Context, c *http.Client, base string, body queryBody) read {
	var rd read
	buf, err := json.Marshal(body)
	if err != nil {
		return rd
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(buf))
	if err != nil {
		return rd
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		rd.lat = time.Since(start)
		return rd
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rd.lat = time.Since(start)
	if err != nil {
		return rd
	}
	rd.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		return rd
	}
	var out service.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		rd.status = 0
		return rd
	}
	rd.result, rd.stats = out.Result, out.Stats
	return rd
}

// readSet is the reads of one timed phase. The phase is cut into
// measurement windows — one second each, or one pass on xmark-suite —
// and the end-to-end metrics are medians over windows, so a burst of
// host CPU steal that hits a few windows does not move them.
type readSet struct {
	reads   []read
	elapsed time.Duration
	winSecs []float64 // length of each full window, seconds
	rss     []float64 // peak resident set per window, MB
	cpu     []float64 // process CPU time (user + system) per window, ms
}

// secondWindows cuts a phase of the given budget into one-second
// windows: it returns their lengths and the window a completion time
// falls in (-1 past the last full window).
func secondWindows(start time.Time, budget time.Duration) ([]float64, func(time.Time) int) {
	n := int(budget / time.Second)
	secs := make([]float64, n)
	for i := range secs {
		secs[i] = 1
	}
	return secs, func(t time.Time) int {
		if w := int(t.Sub(start) / time.Second); w < n {
			return w
		}
		return -1
	}
}

// serviceMetrics adds the service-layer metrics of a phase: the plan
// cache hit ratio from service.Stats deltas, server-reported queueing
// and execution, and the gap between what the client waited and what
// the server accounted for.
func serviceMetrics(m map[string]metric, s readSet, before, after service.Stats) {
	hits := after.Queries.CacheHits - before.Queries.CacheHits
	lookups := hits + after.Queries.CacheMisses - before.Queries.CacheMisses
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	var exec, gap []float64
	queued := 0
	for _, r := range s.reads {
		if r.status != http.StatusOK {
			continue
		}
		if r.stats.QueueMs > 0 {
			queued++
		}
		exec = append(exec, r.stats.ExecMs)
		gap = append(gap, ms(r.lat)-r.stats.QueueMs-r.stats.ExecMs)
	}
	m["service.plan_cache_hit_ratio"] = metric{ratio, "ratio"}
	m["service.plan_cache_lookups"] = metric{float64(lookups), "count"}
	m["service.queued_requests"] = metric{float64(queued), "count"}
	m["service.exec_ms_p50"] = metric{median(exec), "ms"}
	m["service.http_gap_ms_p50"] = metric{median(gap), "ms"}
}

// readMetrics adds the end-to-end read metrics of a phase: per-window
// throughput, median and 99th-percentile latency, each a median over
// the windows; the geometric mean over query classes of each class's
// median latency over the whole phase; and the process CPU time per
// successful read, per window, as the interquartile mean over windows.
func readMetrics(m map[string]metric, s readSet) {
	byWin := make([][]float64, len(s.winSecs))
	byClass := map[string][]float64{}
	for _, r := range s.reads {
		if r.status != http.StatusOK {
			continue
		}
		byClass[r.class] = append(byClass[r.class], ms(r.lat))
		if r.win >= 0 {
			byWin[r.win] = append(byWin[r.win], ms(r.lat))
		}
	}
	var qps, p50, p99, cpu []float64
	for w, lat := range byWin {
		qps = append(qps, float64(len(lat))/s.winSecs[w])
		if len(lat) > 0 {
			p50 = append(p50, quantile(lat, 0.50))
			p99 = append(p99, quantile(lat, 0.99))
			if w < len(s.cpu) {
				cpu = append(cpu, s.cpu[w]/float64(len(lat)))
			}
		}
	}
	m["throughput_qps"] = metric{median(qps), "1/s"}
	m["latency_p50_ms"] = metric{median(p50), "ms"}
	m["latency_p99_ms"] = metric{median(p99), "ms"}
	m["latency_geomean_ms"] = metric{classGeomean(byClass), "ms"}
	m["cpu_ms_per_query"] = metric{interquartileMean(cpu), "ms"}
	if len(s.rss) == 0 { // a run too short for one window
		s.rss = []float64{peakRSSMB()}
	}
	m["peak_rss_mb"] = metric{median(s.rss), "MB"}
}

// overheadMetric reports how much throughput the span recording cost:
// the untraced half's successful reads per second versus the traced
// half's, in percent. Both halves' end-to-end metrics go into the record.
func overheadMetric(out *outcome, untraced, traced readSet) {
	u, t := map[string]metric{}, map[string]metric{}
	readMetrics(u, untraced)
	readMetrics(t, traced)
	out.record["untraced_half"], out.record["traced_half"] = u, t
	rate := func(s readSet) float64 {
		n := 0
		for _, r := range s.reads {
			if r.status == http.StatusOK {
				n++
			}
		}
		return float64(n) / s.elapsed.Seconds()
	}
	uq, tq := rate(untraced), rate(traced)
	out.layers["bench.tracing_overhead_pct"] = metric{(uq - tq) / uq * 100, "%"}
}

// setupReps runs setup n times and returns the median duration and the
// last environment; release frees every earlier one.
func setupReps[E any](n int, setup func() (E, error), release func(E) error) (float64, E, error) {
	var (
		env   E
		times []float64
	)
	for i := 0; i < n; i++ {
		start := time.Now()
		e, err := setup()
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return 0, env, err
		}
		if i < n-1 {
			if err := release(e); err != nil {
				return 0, env, err
			}
			continue
		}
		env = e
	}
	return median(times), env, nil
}

package service_test

// Service-path differential tier (the point of the service: every front
// door returns the same bytes as the embedded engine). XMark q01–q20 are
// checked against the pinned goldens under internal/engine/testdata, the
// Table 2 dialect corpus against a freshly evaluated embedded reference —
// each through the HTTP JSON endpoint, the HTTP text endpoint, and the
// TCP XQ command, at one worker and at eight, with the engine's runtime
// invariant checks enabled throughout.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/corpus"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/opt"
	"pathfinder/internal/serialize"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// goldenSF matches internal/engine's golden tier, so the goldens pin the
// service path too.
const goldenSF = 0.002

type harness struct {
	svc     *service.Service
	httpSrv *httptest.Server
	milSrv  *mil.Server
	tcpAddr string
}

func newHarness(t *testing.T, workers int, docs map[string]string) *harness {
	t.Helper()
	store := xenc.NewStore()
	for uri, doc := range docs {
		if _, err := store.LoadDocumentString(uri, doc); err != nil {
			t.Fatal(err)
		}
	}
	svc := service.New(store, service.Config{
		Engine: engine.Config{Workers: workers, Check: true},
	})
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(hs.Close)
	milSrv := svc.NewMILServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go milSrv.Serve(l) //nolint:errcheck — closed via t.Cleanup
	t.Cleanup(milSrv.Close)
	return &harness{svc: svc, httpSrv: hs, milSrv: milSrv, tcpAddr: l.Addr().String()}
}

// queryJSON drives POST /query; on 200 it returns the result field.
func (h *harness) queryJSON(t *testing.T, query, doc string) (int, string) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"query": query, "doc": doc})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.httpSrv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, string(raw)
	}
	var out struct {
		Result string `json:"result"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON response %q: %v", raw, err)
	}
	return resp.StatusCode, out.Result
}

// queryText drives POST /query/text.
func (h *harness) queryText(t *testing.T, query, doc string) (int, string) {
	t.Helper()
	url := h.httpSrv.URL + "/query/text"
	if doc != "" {
		url += "?doc=" + doc
	}
	resp, err := http.Post(url, "application/xquery", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

func (h *harness) dialTCP(t *testing.T) *mil.Client {
	t.Helper()
	c, err := mil.Dial(h.tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// embedEval is the reference path: the exact compile → optimize → evaluate
// → serialize pipeline the embedded engine runs, no service in sight.
func embedEval(eng *engine.Engine, query, contextDoc string) (string, error) {
	plan, _, err := core.CompileQuery(query, xqcore.Options{ContextDoc: contextDoc})
	if err != nil {
		return "", err
	}
	if plan, err = opt.Optimize(plan); err != nil {
		return "", err
	}
	res, err := eng.EvalContext(context.Background(), plan)
	if err != nil {
		return "", err
	}
	return serialize.Result(eng.Store, res)
}

func refEngine(t *testing.T, workers int, docs map[string]string) *engine.Engine {
	t.Helper()
	store := xenc.NewStore()
	for uri, doc := range docs {
		if _, err := store.LoadDocumentString(uri, doc); err != nil {
			t.Fatal(err)
		}
	}
	return engine.NewWithConfig(store, engine.Config{Workers: workers, Check: true})
}

// TestServiceXMarkGolden: all twenty XMark queries through all three
// transports, byte-compared against the pinned goldens.
func TestServiceXMarkGolden(t *testing.T) {
	doc := xmark.GenerateString(goldenSF)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h := newHarness(t, workers, map[string]string{"xmark.xml": doc})
			tcp := h.dialTCP(t)
			for n := 1; n <= xmark.NumQueries; n++ {
				golden, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "golden", fmt.Sprintf("q%02d.xml", n)))
				if err != nil {
					t.Fatalf("Q%d: %v", n, err)
				}
				want := strings.TrimSuffix(string(golden), "\n")

				if code, got := h.queryJSON(t, xmark.Query(n), "xmark.xml"); code != http.StatusOK || got != want {
					t.Errorf("Q%d http-json: status=%d\n got  = %.300q\n want = %.300q", n, code, got, want)
				}
				if code, got := h.queryText(t, xmark.Query(n), "xmark.xml"); code != http.StatusOK || got != want {
					t.Errorf("Q%d http-text: status=%d\n got  = %.300q\n want = %.300q", n, code, got, want)
				}
				if got, err := tcp.ExecXQReq(engine.QueryRequest{Query: xmark.Query(n), ContextDoc: "xmark.xml"}); err != nil || got != want {
					t.Errorf("Q%d tcp-xq: err=%v\n got  = %.300q\n want = %.300q", n, err, got, want)
				}
			}
		})
	}
}

// TestServiceDialectDifferential: the Table 2 corpus through all three
// transports against a freshly evaluated embedded reference.
func TestServiceDialectDifferential(t *testing.T) {
	docs := map[string]string{"auction.xml": corpus.AuctionDoc}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref := refEngine(t, workers, docs)
			h := newHarness(t, workers, docs)
			tcp := h.dialTCP(t)
			for i, q := range corpus.Dialect {
				want, wantErr := embedEval(ref, q, "auction.xml")
				if wantErr != nil {
					// The service must classify it as a compile failure too.
					if code, _ := h.queryJSON(t, q, "auction.xml"); code != http.StatusBadRequest {
						t.Errorf("dialect[%d] %q: embedded failed (%v) but http status=%d", i, q, wantErr, code)
					}
					if _, err := tcp.ExecXQReq(engine.QueryRequest{Query: q, ContextDoc: "auction.xml"}); err == nil {
						t.Errorf("dialect[%d] %q: embedded failed (%v) but TCP succeeded", i, q, wantErr)
					}
					continue
				}
				if code, got := h.queryJSON(t, q, "auction.xml"); code != http.StatusOK || got != want {
					t.Errorf("dialect[%d] %q http-json: status=%d\n got  = %.300q\n want = %.300q", i, q, code, got, want)
				}
				if code, got := h.queryText(t, q, "auction.xml"); code != http.StatusOK || got != want {
					t.Errorf("dialect[%d] %q http-text: status=%d\n got  = %.300q\n want = %.300q", i, q, code, got, want)
				}
				if got, err := tcp.ExecXQReq(engine.QueryRequest{Query: q, ContextDoc: "auction.xml"}); err != nil || got != want {
					t.Errorf("dialect[%d] %q tcp-xq: err=%v\n got  = %.300q\n want = %.300q", i, q, err, got, want)
				}
			}
		})
	}
}

// TestServiceMILDifferential: plans shipped over the wire (the MIL
// command, the paper's §4 setup) match the embedded engine through the
// service's admission path too.
func TestServiceMILDifferential(t *testing.T) {
	docs := map[string]string{"auction.xml": corpus.AuctionDoc}
	ref := refEngine(t, 8, docs)
	h := newHarness(t, 8, docs)
	tcp := h.dialTCP(t)
	for i, q := range corpus.Dialect {
		plan, _, err := core.CompileQuery(q, xqcore.Options{ContextDoc: "auction.xml"})
		if err != nil {
			continue
		}
		if plan, err = opt.Optimize(plan); err != nil {
			continue
		}
		program, err := mil.Emit(plan)
		if err != nil {
			continue
		}
		want, err := embedEval(ref, q, "auction.xml")
		if err != nil {
			continue
		}
		got, err := tcp.ExecMIL(program)
		if err != nil || got != want {
			t.Errorf("dialect[%d] %q tcp-mil: err=%v\n got  = %.300q\n want = %.300q", i, q, err, got, want)
		}
	}
}

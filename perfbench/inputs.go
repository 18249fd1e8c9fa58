package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"pathfinder/internal/navdom"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// suiteSF is the scale factor of the xmark-suite and point-adhoc
// document (≈3.7 MB): the largest Table 3 size whose q01–q20 pass fits
// many times into a run.
const suiteSF = 0.1

// suiteURI names the single document of xmark-suite and point-adhoc.
const suiteURI = "xmark.xml"

// querySrc is one query text with its binding and expected output.
type querySrc struct {
	class string // metric key: "q01"…"q20", a template or a read name
	text  string
	opts  xqcore.Options
	want  string // navdom's output; filled by computeOracle
}

// xmarkQueries returns q01–q20 bound to uri.
func xmarkQueries(uri string) []querySrc {
	qs := make([]querySrc, 0, xmark.NumQueries)
	for n := 1; n <= xmark.NumQueries; n++ {
		qs = append(qs, querySrc{
			class: fmt.Sprintf("q%02d", n),
			text:  xmark.Query(n),
			opts:  xqcore.Options{ContextDoc: uri},
		})
	}
	return qs
}

// newOracleDB loads docs (uri → XML) into a navdom database in URI order,
// with the value index the differential tests give the baseline.
func newOracleDB(docs map[string]string) (*navdom.DB, error) {
	uris := make([]string, 0, len(docs))
	for u := range docs {
		uris = append(uris, u)
	}
	sort.Strings(uris)
	db := navdom.NewDB()
	for _, u := range uris {
		if _, err := db.LoadString(u, docs[u]); err != nil {
			return nil, fmt.Errorf("oracle load %s: %w", u, err)
		}
	}
	db.AddValueIndex("buyer", "person")
	return db, nil
}

// oracleWorkers is how many goroutines compute oracle outputs. Each
// holds a navdom database of its own (≈0.2 GB at SF 0.1), which caps the
// count more than the CPUs do.
const oracleWorkers = 2

// computeOracle fills want for every query with navdom's output over
// docs. Each goroutine owns its database: element constructors number
// their trees through the database, so one database is not safe to
// share.
func computeOracle(docs map[string]string, qs []querySrc) error {
	workers := min(oracleWorkers, len(qs))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			db, err := newOracleDB(docs)
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			for i := w; i < len(qs); i += workers {
				out, err := navdom.NewInterp(db).Run(qs[i].text, qs[i].opts)
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("oracle %s: %w", qs[i].class, err))
					mu.Unlock()
					return
				}
				qs[i].want = out
			}
		}(w)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// adhocPoolSize is the number of distinct point-adhoc texts: eight times
// the service's default prepared-plan capacity (256), so most requests
// miss the cache.
const adhocPoolSize = 2048

// adhocTemplates are the point-lookup shapes of point-adhoc, after XMark
// q1 (exact match on an id) and q5 (a price threshold). Each takes one
// literal drawn from the instance's id or value range.
var adhocTemplates = []struct {
	class string
	text  string
	lit   func(r *rand.Rand, c xmark.Counts) any
}{
	{"person-name", `for $b in /site/people/person where $b/@id = "person%d" return $b/name/text()`,
		func(r *rand.Rand, c xmark.Counts) any { return r.Intn(c.People) }},
	{"price-count", `count(for $i in /site/closed_auctions/closed_auction where $i/price >= %s return $i/price)`,
		func(r *rand.Rand, _ xmark.Counts) any { return fmt.Sprintf("%d.%02d", 5+r.Intn(295), r.Intn(100)) }},
	{"item-name", `for $i in /site/regions//item where $i/@id = "item%d" return $i/name/text()`,
		func(r *rand.Rand, c xmark.Counts) any { return r.Intn(c.Items) }},
	{"item-price", `for $t in /site/closed_auctions/closed_auction where $t/itemref/@item = "item%d" return $t/price/text()`,
		func(r *rand.Rand, c xmark.Counts) any { return r.Intn(c.Items) }},
}

// adhocPool draws adhocPoolSize distinct texts, cycling through the
// templates so each class holds a quarter of the pool.
func adhocPool(seed int64) []querySrc {
	r := rand.New(rand.NewSource(seed))
	c := xmark.CountsFor(suiteSF)
	seen := map[string]bool{}
	pool := make([]querySrc, 0, adhocPoolSize)
	for len(pool) < adhocPoolSize {
		t := adhocTemplates[len(pool)%len(adhocTemplates)]
		text := fmt.Sprintf(t.text, t.lit(r, c))
		if seen[text] {
			continue // redraw for the same template
		}
		seen[text] = true
		pool = append(pool, querySrc{class: t.class, text: text, opts: xqcore.Options{ContextDoc: suiteURI}})
	}
	return pool
}

// churnSF is the scale factor of each collection-churn document
// (≈0.75 MB; four of them make a ≈3.4 MB collection file).
const churnSF = 0.02

// churnDocs is the number of documents in the churn collection.
const churnDocs = 4

// churnVariants is how many replacement versions exist per document.
const churnVariants = 2

// churnCollection names the churn workload's collection.
const churnCollection = "auctions"

func churnURI(i int) string { return fmt.Sprintf("a%d.xml", i+1) }

// churnInputs are the generated inputs of collection-churn. Version 0 of
// each document is the initial content, versions 1…churnVariants are the
// replacements the writer puts. Each version is generated at its own
// scale factor a few hundred-thousandths above churnSF, which gives every
// version distinct content at nearly the same entity counts. The
// versions are the same for every seed; the seed draws the read
// literals and the writer's schedule.
type churnInputs struct {
	versions [churnDocs][churnVariants + 1]string
	reads    []querySrc
	writes   []churnWrite // the writer's schedule, in order
}

// churnWrite is one scheduled PUT: document doc gets version ver.
type churnWrite struct {
	doc, ver int
}

func newChurnInputs(seed int64, maxWrites int) *churnInputs {
	r := rand.New(rand.NewSource(seed))
	in := &churnInputs{}
	k := 0
	for d := range in.versions {
		for v := range in.versions[d] {
			k++
			in.versions[d][v] = xmark.GenerateString(churnSF + float64(k)*1e-5)
		}
	}
	c := xmark.CountsFor(churnSF)
	p := func() int { return r.Intn(c.People) }
	reads := []struct{ class, text string }{
		{"a1-person", fmt.Sprintf(`for $b in doc("a1.xml")/site/people/person where $b/@id = "person%d" return $b/name/text()`, p())},
		{"a3-person", fmt.Sprintf(`for $b in doc("a3.xml")/site/people/person where $b/@id = "person%d" return $b/name/text()`, p())},
		{"a2-person-elem", fmt.Sprintf(`for $p in doc("a2.xml")/site/people/person where $p/@id = "person%d" return <p>{$p/name/text()}</p>`, p())},
		{"a2-price-count", fmt.Sprintf(`count(for $i in doc("a2.xml")/site/closed_auctions/closed_auction where $i/price >= %d return $i)`, 5+r.Intn(295))},
		{"a4-price-count", fmt.Sprintf(`count(for $i in doc("a4.xml")/site/closed_auctions/closed_auction where $i/price >= %d return $i)`, 5+r.Intn(295))},
		{"a4-item-name", fmt.Sprintf(`for $i in doc("a4.xml")/site/regions//item where $i/@id = "item%d" return $i/name/text()`, r.Intn(c.Items))},
		{"a3-bidder-count", fmt.Sprintf(`count(doc("a3.xml")/site/open_auctions/open_auction[bidder/personref/@person = "person%d"])`, p())},
		{"all-item-count", `count(doc("a1.xml")//item) + count(doc("a2.xml")//item) + count(doc("a3.xml")//item) + count(doc("a4.xml")//item)`},
	}
	for _, rd := range reads {
		in.reads = append(in.reads, querySrc{class: rd.class, text: rd.text})
	}
	// The schedule visits every document once per round, in a seeded
	// order, and alternates each document's versions, so every seed
	// writes the same bytes per round.
	for len(in.writes) < maxWrites {
		for _, d := range r.Perm(churnDocs) {
			v := 1 + (len(in.writes)/churnDocs)%churnVariants
			in.writes = append(in.writes, churnWrite{doc: d, ver: v})
		}
	}
	return in
}

// docsAt maps each URI to its content given each document's version.
func (in *churnInputs) docsAt(ver [churnDocs]int) map[string]string {
	m := make(map[string]string, churnDocs)
	for d := range ver {
		m[churnURI(d)] = in.versions[d][ver[d]]
	}
	return m
}

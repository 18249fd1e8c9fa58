package pfstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

const sampleDoc = `<site><people><person id="p0"><name>Ann</name></person>` +
	`<person id="p1"><name>Bob</name></person></people>` +
	`<regions><africa><item id="i0"><quantity>2</quantity></item></africa></regions></site>`

func sampleStore(t *testing.T) *xenc.Store {
	t.Helper()
	s := xenc.NewStore()
	if _, err := s.LoadDocumentString("a.xml", sampleDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadDocumentString("b.xml", `<log><entry ts="1">ok</entry><!--tail--></log>`); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveOpenRoundTrip(t *testing.T) {
	src := sampleStore(t)
	// A constructed fragment (no document registry entry) persists too.
	fb := xenc.NewFragBuilder(src)
	fb.StartElem("made")
	fb.AddText("content")
	fb.EndElem()
	made, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.pfc")
	if err := Save(path, src, "c", 7); err != nil {
		t.Fatal(err)
	}
	got, meta, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 7 || meta.Collection != "c" {
		t.Fatalf("meta = %+v", meta)
	}
	if want := []string{"a.xml", "b.xml"}; len(meta.Manifest) != 2 || meta.Manifest[0] != want[0] || meta.Manifest[1] != want[1] {
		t.Fatalf("manifest = %v", meta.Manifest)
	}
	sp, gp := src.Parts(), got.Parts()
	if len(sp.Frags) != len(gp.Frags) {
		t.Fatalf("fragment count %d != %d", len(gp.Frags), len(sp.Frags))
	}
	for i := range sp.Frags {
		a, b := sp.Frags[i], gp.Frags[i]
		if err := b.Validate(); err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if a.NodeCount() != b.NodeCount() || a.AttrCount() != b.AttrCount() {
			t.Fatalf("fragment %d counts differ", i)
		}
		for p := 0; p < a.NodeCount(); p++ {
			if a.Size[p] != b.Size[p] || a.Level[p] != b.Level[p] || a.Kind[p] != b.Kind[p] ||
				a.Prop[p] != b.Prop[p] || a.Parent[p] != b.Parent[p] {
				t.Fatalf("fragment %d node %d differs", i, p)
			}
		}
	}
	for k := range sp.Pools {
		if len(sp.Pools[k]) != len(gp.Pools[k]) {
			t.Fatalf("pool %d size differs", k)
		}
		for i := range sp.Pools[k] {
			if sp.Pools[k][i] != gp.Pools[k][i] {
				t.Fatalf("pool %d entry %d differs", k, i)
			}
		}
	}
	// Reopened store answers content lookups (lazy pool index path).
	if got.TagID("person") != src.TagID("person") {
		t.Fatal("TagID differs after reopen")
	}
	root, err := got.Doc("a.xml")
	if err != nil {
		t.Fatal(err)
	}
	srcRoot, err := src.Doc("a.xml")
	if err != nil {
		t.Fatal(err)
	}
	if got.StringValue(root) != src.StringValue(srcRoot) {
		t.Fatal("string value differs after reopen")
	}
	if s := got.Serialize(bat.NodeRef{Frag: made, Pre: 0}); s != "<made>content</made>" {
		t.Fatalf("constructed fragment after reopen = %q", s)
	}
}

func TestOpenRejectsDamage(t *testing.T) {
	src := sampleStore(t)
	path := filepath.Join(t.TempDir(), "c.pfc")
	if err := Save(path, src, "c", 1); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad version", func(b []byte) []byte { b[8] = 99; return b }},
		{"header bitflip", func(b []byte) []byte { b[20] ^= 0x01; return b }},
		{"table bitflip", func(b []byte) []byte { b[headerBytes+3] ^= 0x01; return b }},
		{"section bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"truncated table", func(b []byte) []byte { return b[:headerBytes+5] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), buf...))
			if _, _, err := OpenBytes(b); err == nil {
				t.Fatalf("OpenBytes accepted %s", tc.name)
			}
		})
	}
}

func TestCatalogPutGetDeleteList(t *testing.T) {
	cat, err := OpenCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Collection("missing"); err == nil {
		t.Fatal("expected not-found error")
	}
	src := sampleStore(t)
	gen, err := cat.Put("docs", src)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first generation = %d", gen)
	}
	st, g, err := cat.Collection("docs")
	if err != nil || g != 1 || st == nil {
		t.Fatalf("Collection: %v g=%d", err, g)
	}
	gen2, err := cat.Put("docs", src)
	if err != nil || gen2 != 2 {
		t.Fatalf("re-Put: %v gen=%d", err, gen2)
	}
	// A fresh catalog over the same dir reads generation from the file.
	cat2, err := OpenCatalog(cat.Dir())
	if err != nil {
		t.Fatal(err)
	}
	gen3, err := cat2.Put("docs", src)
	if err != nil || gen3 != 3 {
		t.Fatalf("cold re-Put: %v gen=%d", err, gen3)
	}
	infos, err := cat2.List()
	if err != nil || len(infos) != 1 {
		t.Fatalf("List: %v %v", err, infos)
	}
	if infos[0].Name != "docs" || infos[0].Generation != 3 || len(infos[0].Documents) != 2 {
		t.Fatalf("List entry = %+v", infos[0])
	}
	if err := cat2.Delete("docs"); err != nil {
		t.Fatal(err)
	}
	if err := cat2.Delete("docs"); err == nil {
		t.Fatal("double delete should fail")
	}
	for _, bad := range []string{"", "..", "a/b", ".hidden", "-dash", "x y"} {
		if ValidName(bad) {
			t.Fatalf("ValidName(%q) = true", bad)
		}
	}
	for _, good := range []string{"a", "auction", "x.y-z_2"} {
		if !ValidName(good) {
			t.Fatalf("ValidName(%q) = false", good)
		}
	}
}

// TestCatalogRetriesAfterOpenError: an open failure (damaged file, torn
// read) must not be pinned in the once-guarded cache entry — after the
// file is repaired on disk, the next Collection access succeeds.
func TestCatalogRetriesAfterOpenError(t *testing.T) {
	dir := t.TempDir()
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "docs"+fileExt)
	if err := os.WriteFile(path, []byte("this is not a pfc file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Collection("docs"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("damaged file open = %v, want a non-not-found error", err)
	}
	if err := Save(path, sampleStore(t), "docs", 5); err != nil {
		t.Fatal(err)
	}
	st, gen, err := cat.Collection("docs")
	if err != nil || st == nil || gen != 5 {
		t.Fatalf("after repair: store=%v gen=%d err=%v, want gen 5", st != nil, gen, err)
	}
}

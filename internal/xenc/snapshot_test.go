package xenc_test

// Store snapshots: pfserver -snapshot persists a whole store with
// pfstore.Save and restores it with pfstore.Open. These tests live in an
// external package so they can drive that path (pfstore imports xenc).

import (
	"os"
	"path/filepath"
	"testing"

	"pathfinder/internal/bat"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/xenc"
)

const snapDoc = `<site><a x="1" y="2"><b>hello</b><c/></a><a x="1">world</a></site>`

// snapshotOf saves s to a fresh file and reopens it.
func snapshotOf(t *testing.T, s *xenc.Store) *xenc.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.pfc")
	if err := pfstore.Save(path, s, "", 0); err != nil {
		t.Fatal(err)
	}
	restored, _, err := pfstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := xenc.NewStore()
	doc, err := s.LoadDocumentString("tiny.xml", snapDoc)
	if err != nil {
		t.Fatal(err)
	}
	// Add a constructed fragment so both kinds persist.
	fb := xenc.NewFragBuilder(s)
	fb.StartElem("made")
	fb.AddText("content")
	fb.EndElem()
	frag, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}

	restored := snapshotOf(t, s)
	got, err := restored.Doc("tiny.xml")
	if err != nil || got != doc {
		t.Fatalf("doc registry: %v %v", got, err)
	}
	if restored.Serialize(doc) != snapDoc {
		t.Errorf("restored serialization = %q", restored.Serialize(doc))
	}
	if restored.Serialize(bat.NodeRef{Frag: frag, Pre: 0}) != "<made>content</made>" {
		t.Error("constructed fragment lost")
	}
	// Surrogates still resolve identically.
	if restored.TagID("site") != s.TagID("site") {
		t.Error("tag surrogates diverged")
	}
	if restored.Report().Total() != s.Report().Total() {
		t.Error("storage accounting diverged")
	}
}

// TestSnapshotIntoNonEmptyStoreFails: a restored snapshot is a complete,
// non-empty store, so loading a document under a URI it already holds
// fails rather than shadowing the restored one; a damaged snapshot file
// fails to open instead of yielding a partial store.
func TestSnapshotIntoNonEmptyStoreFails(t *testing.T) {
	s := xenc.NewStore()
	if _, err := s.LoadDocumentString("tiny.xml", snapDoc); err != nil {
		t.Fatal(err)
	}
	restored := snapshotOf(t, s)
	if _, err := restored.LoadDocumentString("tiny.xml", "<other/>"); err == nil {
		t.Error("loading over a restored document must fail")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.pfc")
	if err := os.WriteFile(garbage, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pfstore.Open(garbage); err == nil {
		t.Error("corrupt snapshot must fail")
	}
}

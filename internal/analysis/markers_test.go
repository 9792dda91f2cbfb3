package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

func TestUnknownMarkers(t *testing.T) {
	src := `package p

//aarc:locked shard lock owns the runner
func a() {}

//aarc:lokced typo of locked
func b() {}

//aarc:hotpath
func c() {}

//aarc:frobnicate made-up kind
func d() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "m.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	idx := IndexMarkers(fset, []*ast.File{f})

	// hotpath is the kind of a removed analyzer: a leftover use of it
	// waives or roots nothing, so it is reported like a typo.
	unknown := idx.Unknown()
	var names []string
	for _, m := range unknown {
		names = append(names, m.Name)
	}
	if want := []string{"lokced", "hotpath", "frobnicate"}; !slices.Equal(names, want) {
		t.Errorf("Unknown() = %q, want %q in file order", names, want)
	}
	for _, m := range unknown {
		if !m.Pos.IsValid() {
			t.Errorf("marker %q has no position", m.Name)
		}
	}

	// The known markers must not be flagged, and every analyzer kind
	// must be in the vocabulary.
	for _, kind := range []string{"detached", "locked", "errpath", "lockorder", "nilok"} {
		if !KnownMarkers[kind] {
			t.Errorf("KnownMarkers missing %q", kind)
		}
	}
}

func TestMarkerAt(t *testing.T) {
	src := `package p

func a() {
	x() //aarc:locked same line
	//aarc:locked line above
	y()
	z()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "m.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	idx := IndexMarkers(fset, []*ast.File{f})

	find := func(line int) (Marker, bool) {
		// Build a pos on the requested line via the file's line table.
		tf := fset.File(f.Pos())
		return idx.At(fset, tf.LineStart(line), "locked")
	}
	if m, ok := find(4); !ok || m.Arg != "same line" {
		t.Errorf("line 4: marker = %+v, %v; want same-line hit", m, ok)
	}
	if m, ok := find(6); !ok || m.Arg != "line above" {
		t.Errorf("line 6: marker = %+v, %v; want line-above hit", m, ok)
	}
	if _, ok := find(7); ok {
		t.Error("line 7: unexpected marker hit")
	}
}

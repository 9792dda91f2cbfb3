package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Marker is one //aarc:<name> <argument> comment. Markers are the
// suite's waiver/annotation vocabulary:
//
//	//aarc:detached <reason>  — blessed context detachment site (ctxflow)
//	//aarc:locked <reason>    — call under a mutex that owns the callee (lockorder)
//	//aarc:errpath <reason>   — deliberate store write on an error path (tierorder)
//	//aarc:lockorder <reason> — blessed lock-acquisition edge (lockorder)
//	//aarc:nilok <reason>     — dereference proven safe (nilness)
//
// A marker waives the diagnostic on its own line or the line directly
// below, so both end-of-line and line-above placement work. Every
// waiver marker requires a non-empty reason: the argument is the
// reviewable justification, and an empty one is itself a finding.
//
// KnownMarkers is the closed set of marker kinds; the aarcvet driver
// reports any //aarc: comment outside it, so a typo like //aarc:lokced
// is a finding instead of a silently dead waiver.
type Marker struct {
	Name string
	Arg  string
	Line int
	File string
	Pos  token.Pos
}

// KnownMarkers is the marker vocabulary. Adding an analyzer with a new
// waiver kind means adding it here, or every use of the new marker is
// itself reported.
var KnownMarkers = map[string]bool{
	"detached":  true,
	"locked":    true,
	"errpath":   true,
	"lockorder": true,
	"nilok":     true,
}

// MarkerIndex holds every //aarc: marker in a package, keyed by
// file:line for position lookups.
type MarkerIndex struct {
	byLine map[string][]Marker
}

const markerPrefix = "//aarc:"

// IndexMarkers scans the files' comments for //aarc: markers. Files
// must have been parsed with parser.ParseComments.
func IndexMarkers(fset *token.FileSet, files []*ast.File) *MarkerIndex {
	idx := &MarkerIndex{byLine: make(map[string][]Marker)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, markerPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, markerPrefix)
				name, arg, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				m := Marker{
					Name: name,
					Arg:  strings.TrimSpace(arg),
					Line: pos.Line,
					File: pos.Filename,
					Pos:  c.Pos(),
				}
				key := markerKey(pos.Filename, pos.Line)
				idx.byLine[key] = append(idx.byLine[key], m)
			}
		}
	}
	return idx
}

func markerKey(file string, line int) string {
	// line numbers are small; this beats a struct key for map reuse.
	return file + "\x00" + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Unknown returns every marker whose kind is outside KnownMarkers, in
// file/line order. The aarcvet driver reports these so a typoed waiver
// fails the build instead of waiving nothing.
func (idx *MarkerIndex) Unknown() []Marker {
	var out []Marker
	for _, ms := range idx.byLine {
		for _, m := range ms {
			if !KnownMarkers[m.Name] {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// At returns the named marker covering pos: on the same line as pos or
// on the line directly above it.
func (idx *MarkerIndex) At(fset *token.FileSet, pos token.Pos, name string) (Marker, bool) {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, m := range idx.byLine[markerKey(p.Filename, line)] {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Marker{}, false
}

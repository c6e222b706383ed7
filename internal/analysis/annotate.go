package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The //caps: annotation grammar (DESIGN.md §13 "Hot-path discipline"):
//
//	//caps:hotpath
//	    On a function's doc comment: the function is a hot-path root.
//	    hotlint walks the call graph from every root and flags
//	    heap-allocating constructs in everything reachable.
//
//	//caps:alloc-ok <reason>
//	    On a statement line (trailing, or the line above): the allocation
//	    at this site is accepted — the reason is mandatory. On a call site
//	    it also prunes the hotlint walk into that callee (cold or
//	    amortized subtrees are cordoned off at their entry call).
//
// Multiple directives may share one comment: each `//caps:` segment starts
// a new directive, e.g. `//caps:hotpath //caps:alloc-ok pooled`.

// Directive is one parsed //caps:<verb> marker.
type Directive struct {
	Verb string // "hotpath", "alloc-ok"
	Arg  string // free text after the verb: the reason
	Pos  token.Position
}

type siteKey struct {
	file string
	line int
}

// Annotations indexes every //caps: directive of a package set two ways:
// by site (file:line, with the line-above form registered one line down,
// mirroring //simcheck:allow) and by function (doc-comment directives).
type Annotations struct {
	site map[siteKey][]Directive
	fn   map[*types.Func][]Directive
}

// parseDirectives extracts every caps: directive from one comment's text.
// Following the Go directive convention, a comment only carries directives
// if "caps:" immediately follows the comment opener — `// the //caps:hotpath
// marker` is prose, not an annotation. The text is then split on "//"
// segment starts so a single comment can carry several directives.
func parseDirectives(text string, pos token.Position) []Directive {
	var out []Directive
	text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
	text = strings.TrimPrefix(text, "//")
	if !strings.HasPrefix(text, "caps:") {
		return nil
	}
	for _, seg := range strings.Split(text, "//") {
		seg = strings.TrimSpace(seg)
		rest, ok := strings.CutPrefix(seg, "caps:")
		if !ok {
			continue
		}
		verb, arg, _ := strings.Cut(rest, " ")
		verb = strings.TrimSpace(verb)
		if verb == "" {
			continue
		}
		out = append(out, Directive{Verb: verb, Arg: strings.TrimSpace(arg), Pos: pos})
	}
	return out
}

func groupDirectives(fset *token.FileSet, doc *ast.CommentGroup) []Directive {
	if doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range doc.List {
		out = append(out, parseDirectives(c.Text, fset.Position(c.Pos()))...)
	}
	return out
}

// CollectAnnotations scans every file of every package for //caps:
// directives.
func CollectAnnotations(pkgs []*Package) *Annotations {
	a := &Annotations{
		site: make(map[siteKey][]Directive),
		fn:   make(map[*types.Func][]Directive),
	}
	for _, pkg := range pkgs {
		fset := pkg.Fset
		for _, f := range pkg.Files {
			// Site index: every directive registers on its own line
			// (trailing form) and the next (line-above form).
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := fset.Position(c.Pos())
					for _, d := range parseDirectives(c.Text, pos) {
						a.site[siteKey{pos.Filename, pos.Line}] = append(a.site[siteKey{pos.Filename, pos.Line}], d)
						a.site[siteKey{pos.Filename, pos.Line + 1}] = append(a.site[siteKey{pos.Filename, pos.Line + 1}], d)
					}
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				dirs := groupDirectives(fset, fd.Doc)
				if len(dirs) == 0 {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					a.fn[obj] = append(a.fn[obj], dirs...)
				}
			}
		}
	}
	return a
}

// At returns the first directive with the given verb siting on pos's line
// (trailing or line-above comment form).
func (a *Annotations) At(pos token.Position, verb string) (Directive, bool) {
	for _, d := range a.site[siteKey{pos.Filename, pos.Line}] {
		if d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}

// FuncsWith returns every function carrying a doc-comment directive with
// the verb, sorted by full name so walks are deterministic.
func (a *Annotations) FuncsWith(verb string) []*types.Func {
	var out []*types.Func
	for fn, dirs := range a.fn { //simcheck:allow detlint collected then sorted below
		for _, d := range dirs {
			if d.Verb == verb {
				out = append(out, fn)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

package synergy_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// TestDocReferences checks every inline code span of the top-level docs
// against the tree, so that a rename or a deletion cannot leave a doc
// naming something that is gone:
//
//   - A repo path must exist. A word is a repo path when it is relative
//     and its first segment is a top-level entry of the repository, or
//     it ends in .go, .json, .sh, .md, .yml or .txt.
//   - A dotted name whose qualifier is a bench/ layer and whose name is
//     lower case (ctrenc.pad_ns) must be a metric of BENCHMARK.json.
//   - Any other X.Y must resolve through the tree's non-test Go files
//     when X is a repo package (Y declared at its top level, and a third
//     part a member of that type) or a type declared in the repo (Y a
//     field or method of some type X, promoted members and type aliases
//     followed).
//
// Everything else — stdlib-qualified names, bare words, flags — is prose
// and is not checked.
func TestDocReferences(t *testing.T) {
	tree := parseGoTree(t)
	metrics, layers := benchMetrics(t)
	top := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		top[e.Name()] = true
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(raw)) {
			for _, tok := range expandBraces(span.text) {
				for _, word := range strings.Fields(tok) {
					if p := strings.TrimPrefix(word, "./"); isRepoPath(p, top) {
						if m, _ := filepath.Glob(p); len(m) == 0 {
							t.Errorf("%s:%d: `%s`: no such path %s", doc, span.line, span.text, p)
						}
					}
				}
				for _, parts := range dottedNames(tok) {
					if msg := tree.check(parts, metrics, layers); msg != "" {
						t.Errorf("%s:%d: `%s`: %s", doc, span.line, span.text, msg)
					}
				}
			}
		}
	}
}

var pathExts = []string{".go", ".json", ".sh", ".md", ".yml", ".txt"}

func isRepoPath(word string, top map[string]bool) bool {
	if strings.HasPrefix(word, "/") {
		return false // an absolute path or a URL route
	}
	first, _, _ := strings.Cut(word, "/")
	return top[first] || hasPathExt(word)
}

func hasPathExt(word string) bool {
	for _, ext := range pathExts {
		if strings.HasSuffix(word, ext) {
			return true
		}
	}
	return false
}

type codeSpan struct {
	line int
	text string
}

var spanRE = regexp.MustCompile("`([^`]+)`")

// codeSpans returns the inline code spans of a markdown document, fenced
// blocks excluded, with the line each starts on and its white space
// collapsed (a span may wrap).
func codeSpans(doc string) []codeSpan {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	doc = strings.Join(lines, "\n")
	var spans []codeSpan
	for _, m := range spanRE.FindAllStringSubmatchIndex(doc, -1) {
		spans = append(spans, codeSpan{
			line: 1 + strings.Count(doc[:m[0]], "\n"),
			text: strings.Join(strings.Fields(doc[m[2]:m[3]]), " "),
		})
	}
	return spans
}

var braceRE = regexp.MustCompile(`\{([\w-]+(?:,[\w-]+)+)\}`)

// expandBraces expands the first shell-style {a,b} group of s.
func expandBraces(s string) []string {
	m := braceRE.FindStringSubmatchIndex(s)
	if m == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[m[2]:m[3]], ",") {
		out = append(out, s[:m[0]]+alt+s[m[1]:])
	}
	return out
}

var dottedRE = regexp.MustCompile(`[A-Za-z_]\w*(?:\(\))?(?:\.[A-Za-z_]\w*\*?(?:\(\))?)+`)

// dottedNames returns every X.Y[.Z] chain in s, call parentheses
// stripped, skipping chains that are part of a path or a file name.
func dottedNames(s string) [][]string {
	var out [][]string
	for _, m := range dottedRE.FindAllStringIndex(s, -1) {
		if m[0] > 0 && strings.ContainsAny(s[m[0]-1:m[0]], "/.-") {
			continue
		}
		chain := s[m[0]:m[1]]
		if hasPathExt(chain) {
			continue
		}
		parts := strings.Split(strings.ReplaceAll(chain, "()", ""), ".")
		out = append(out, parts)
	}
	return out
}

func benchMetrics(t *testing.T) (metrics, layers map[string]bool) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	metrics, layers = map[string]bool{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		metrics[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		metrics[m.Name] = true
		layer, _, _ := strings.Cut(m.Name, ".")
		layers[layer] = true
	}
	return metrics, layers
}

// typeRef names a type by its package's name and its own.
type typeRef struct{ pkg, name string }

type typeDecl struct {
	members map[string]bool // fields and methods
	embeds  []typeRef       // embedded types, whose members are promoted
	alias   *typeRef
}

type goTree struct {
	decls map[string]map[string]bool // package name → top-level names
	types map[typeRef]*typeDecl
	named map[string][]typeRef // type name → every package declaring it
}

// parseGoTree reads every non-test Go file of the repository.
func parseGoTree(t *testing.T) *goTree {
	tree := &goTree{decls: map[string]map[string]bool{}, types: map[typeRef]*typeDecl{}, named: map[string][]typeRef{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tree.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func (g *goTree) decl(ref typeRef) *typeDecl {
	d := g.types[ref]
	if d == nil {
		d = &typeDecl{members: map[string]bool{}}
		g.types[ref] = d
		g.named[ref.name] = append(g.named[ref.name], ref)
	}
	return d
}

func (g *goTree) add(f *ast.File) {
	pkg := f.Name.Name
	if g.decls[pkg] == nil {
		g.decls[pkg] = map[string]bool{}
	}
	top := g.decls[pkg]
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
			} else if ref, ok := refOf(pkg, d.Recv.List[0].Type); ok {
				g.decl(ref).members[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				case *ast.TypeSpec:
					top[s.Name.Name] = true
					td := g.decl(typeRef{pkg, s.Name.Name})
					if s.Assign.IsValid() {
						if ref, ok := refOf(pkg, s.Type); ok {
							td.alias = &ref
						}
						continue
					}
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							td.members[n.Name] = true
						}
						if len(fld.Names) == 0 {
							if ref, ok := refOf(pkg, fld.Type); ok {
								td.members[ref.name] = true
								td.embeds = append(td.embeds, ref)
							}
						}
					}
				}
			}
		}
	}
}

// refOf resolves a type expression (T, *T, pkg.T, T[P]) written in
// package pkg. Import names are assumed to be package names.
func refOf(pkg string, e ast.Expr) (typeRef, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return typeRef{pkg, e.Name}, true
	case *ast.StarExpr:
		return refOf(pkg, e.X)
	case *ast.IndexExpr:
		return refOf(pkg, e.X)
	case *ast.IndexListExpr:
		return refOf(pkg, e.X)
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return typeRef{x.Name, e.Sel.Name}, true
		}
	}
	return typeRef{}, false
}

// hasMember reports whether the type has field or method m, or any with
// prefix m when m ends in '*'. depth bounds the alias and embedding
// chains followed, which a cycle of names across packages could make
// endless.
func (g *goTree) hasMember(ref typeRef, m string, depth int) bool {
	d := g.types[ref]
	if d == nil || depth > 8 {
		return false
	}
	if d.alias != nil {
		return g.hasMember(*d.alias, m, depth+1)
	}
	if matchName(d.members, m) {
		return true
	}
	for _, e := range d.embeds {
		if g.hasMember(e, m, depth+1) {
			return true
		}
	}
	return false
}

func matchName(names map[string]bool, m string) bool {
	prefix, wild := strings.CutSuffix(m, "*")
	if !wild {
		return names[m]
	}
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// check returns why parts do not resolve, or "" when they do or are not
// the tree's to check.
func (g *goTree) check(parts []string, metrics, layers map[string]bool) string {
	x, y := parts[0], parts[1]
	if layers[x] && (g.decls[x] == nil || strings.Contains(y, "_") || unicode.IsLower(rune(y[0]))) {
		if !metrics[x+"."+y] {
			return x + "." + y + " is not a metric in BENCHMARK.json"
		}
		return ""
	}
	if names := g.decls[x]; names != nil {
		if !matchName(names, y) {
			return "package " + x + " declares no " + y
		}
		if len(parts) > 2 && g.types[typeRef{x, y}] != nil && !g.hasMember(typeRef{x, y}, parts[2], 0) {
			return x + "." + y + " has no field or method " + parts[2]
		}
		return ""
	}
	refs := g.named[x]
	if len(refs) == 0 {
		return ""
	}
	for _, ref := range refs {
		if g.hasMember(ref, y, 0) {
			return ""
		}
	}
	return "no type " + x + " in the tree has a field or method " + y
}

package ufab

import (
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestConfigFieldCensus holds the rule "a knob nobody sets is a constant" to
// itself: every exported field of an exported …Config / …Options struct
// declared under internal/ must be written by something other than its own
// package's defaulting — a keyed composite literal, an assignment, an
// increment or an address-of (a flag binding) in cmd/, examples/, bench/,
// another package of internal/ or any _test.go. A field with no such writer
// fails, named; a field only tests write is logged.
//
// The census reads syntax, not types. A composite literal counts against the
// struct its written type names (elided element types of slice, array and
// map literals included). A selector write `x.A.F = v` cannot be attributed
// without type information, so it counts — for F and for the A it writes
// through — for every census struct that has a field of that name: the
// census can miss an orphan that shares its name with a written field of
// another struct, and cannot blame a field that is written. Writes in the
// declaring package's non-test files are its defaulting and plumbing and do
// not count, and neither does the defaulting idiom `if x.F == 0 { x.F =
// <constant> }` in any package (vfabric.normalize filling a nested config is
// a default, not a user). A struct no composite literal outside its package
// constructs is a parameter bundle of that package, not an options struct,
// and is skipped.
func TestConfigFieldCensus(t *testing.T) {
	fset, files := parseTree(t)

	// The census structs, keyed "dir.Type", and for each field name the
	// structs that have it.
	type census struct {
		dir                  string
		constructed          bool                // by a composite literal outside the package's own code
		fields               map[string]struct{} // exported field names
		writers, testWriters map[string]string   // field → one writing site
	}
	structs := map[string]*census{}
	byField := map[string][]*census{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() ||
				!(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
				return true
			}
			c := &census{dir: f.dir, fields: map[string]struct{}{}, writers: map[string]string{}, testWriters: map[string]string{}}
			structs[f.dir+"."+ts.Name.Name] = c
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.IsExported() {
						c.fields[name.Name] = struct{}{}
						byField[name.Name] = append(byField[name.Name], c)
					}
				}
			}
			return true
		})
	}

	text := func(e ast.Expr) string {
		var b strings.Builder
		printer.Fprint(&b, fset, e)
		return b.String()
	}
	for _, f := range files {
		pkgs := map[string]string{} // local name of every import → its dir in the module, "" outside it
		for _, im := range f.ast.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			pkgs[name] = strings.TrimPrefix(p, "ufab/")
			if !strings.HasPrefix(p, "ufab/") {
				pkgs[name] = ""
			}
		}
		// resolve returns the census struct a type expression names, or nil.
		resolve := func(e ast.Expr) *census {
			if st, ok := e.(*ast.StarExpr); ok {
				e = st.X
			}
			switch e := e.(type) {
			case *ast.Ident:
				return structs[f.dir+"."+e.Name]
			case *ast.SelectorExpr:
				if pkg, ok := e.X.(*ast.Ident); ok {
					return structs[pkgs[pkg.Name]+"."+e.Sel.Name]
				}
			}
			return nil
		}
		// constant reports whether e mentions no variable: literals, operators
		// and names qualified by an imported package (sim.Second,
		// workload.KeyValue()).
		constant := func(e ast.Expr) bool {
			ok := true
			ast.Inspect(e, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					pkg, isIdent := n.X.(*ast.Ident)
					_, imported := pkgs[pkg.String()]
					ok = ok && isIdent && imported
					return false
				case *ast.Ident:
					ok = ok && (n.Name == "true" || n.Name == "false" || n.Name == "nil")
				}
				return ok
			})
			return ok
		}
		write := func(cs []*census, name string, pos token.Pos) {
			for _, c := range cs {
				if _, has := c.fields[name]; !has || (c.dir == f.dir && !f.test) {
					continue
				}
				if f.test {
					c.testWriters[name] = fset.Position(pos).String()
				} else {
					c.writers[name] = fset.Position(pos).String()
				}
			}
		}
		// selectorWrite counts a write to x.A.B for B and, through it, for A.
		selectorWrite := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					write(byField[x.Sel.Name], x.Sel.Name, x.Pos())
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				default:
					return
				}
			}
		}
		elided := map[*ast.CompositeLit]ast.Expr{} // element literal → its container's element type
		defaulting := map[ast.Stmt]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				// if x.F == 0 { x.F = <constant> }: the assignment is a default.
				if c, ok := n.Cond.(*ast.BinaryExpr); ok && (c.Op == token.EQL || c.Op == token.LEQ) {
					for _, s := range n.Body.List {
						if as, ok := s.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 &&
							text(as.Lhs[0]) == text(c.X) && constant(as.Rhs[0]) {
							defaulting[s] = true
						}
					}
				}
			case *ast.AssignStmt:
				if !defaulting[n] && n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						selectorWrite(lhs)
					}
				}
			case *ast.IncDecStmt:
				selectorWrite(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					selectorWrite(n.X)
				}
			case *ast.CompositeLit:
				typ := n.Type
				if typ == nil {
					typ = elided[n]
				}
				var elt ast.Expr // of a slice, array or map literal
				switch ct := typ.(type) {
				case *ast.ArrayType:
					elt = ct.Elt
				case *ast.MapType:
					elt = ct.Value
				}
				if elt != nil {
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							e = kv.Value
						}
						if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
							e = u.X
						}
						if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil {
							elided[inner] = elt
						}
					}
					return true
				}
				c := resolve(typ)
				if c != nil && (c.dir != f.dir || f.test) {
					c.constructed = true
				}
				for _, e := range n.Elts {
					kv, keyed := e.(*ast.KeyValueExpr)
					if !keyed {
						if c != nil { // positional literal: every field
							for name := range c.fields {
								write([]*census{c}, name, n.Pos())
							}
						}
						break
					}
					if id, ok := kv.Key.(*ast.Ident); ok {
						if typ == nil {
							write(byField[id.Name], id.Name, id.Pos()) // type unknown: by name
						} else if c != nil {
							write([]*census{c}, id.Name, id.Pos())
						}
					}
				}
			}
			return true
		})
	}

	var keys []string
	for key := range structs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	orphans, testOnly := 0, 0
	for _, key := range keys {
		c := structs[key]
		if !c.constructed {
			t.Logf("%s: constructed only by its own package — a parameter bundle, skipped", key)
			continue
		}
		var names []string
		for name := range c.fields {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if c.writers[name] != "" {
				continue
			}
			if site := c.testWriters[name]; site != "" {
				testOnly++
				t.Logf("%s.%s: written only by tests (%s)", key, name, site)
				continue
			}
			orphans++
			t.Errorf("%s.%s: no writer outside its package's defaulting — make it a constant", key, name)
		}
	}
	t.Logf("%d census structs, %d fields nothing writes, %d written only by tests", len(keys), orphans, testOnly)
}

// goFile is one parsed Go file of the tree.
type goFile struct {
	dir  string // slash-separated, relative to the module root
	test bool
	ast  *ast.File
}

// parseTree parses every Go file under the module root (bench/ included,
// hidden directories skipped) for the syntax censuses.
func parseTree(t *testing.T) (*token.FileSet, []goFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(filepath.Dir(path)), strings.HasSuffix(path, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// TestRandSourceCensus holds "one constructor" for seeded streams: product
// code under internal/ and cmd/ makes its generators with stats.NewRand,
// which reproduces math/rand's stream from a few dozen bytes instead of a
// 4.9 KB source. Any mention of math/rand's NewSource there, outside
// internal/stats which wraps it, fails, named. bench/ is its own module and
// is not held to it.
func TestRandSourceCensus(t *testing.T) {
	fset, files := parseTree(t)
	for _, f := range files {
		if f.test || f.dir == "internal/stats" ||
			!(strings.HasPrefix(f.dir, "internal/") || strings.HasPrefix(f.dir, "cmd/")) {
			continue
		}
		mathRand := map[string]bool{} // local names of math/rand
		for _, im := range f.ast.Imports {
			if strings.Trim(im.Path.Value, `"`) == "math/rand" {
				name := "rand"
				if im.Name != nil {
					name = im.Name.Name
				}
				mathRand[name] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewSource" {
				if pkg, ok := sel.X.(*ast.Ident); ok && mathRand[pkg.Name] {
					t.Errorf("%s: %s.NewSource outside internal/stats — use stats.NewRand", fset.Position(sel.Pos()), pkg.Name)
				}
			}
			return true
		})
	}
}

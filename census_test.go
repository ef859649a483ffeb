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
// increment or an address-of (a flag binding) in cmd/, bench/, another
// package of internal/ or any _test.go. A field with no such writer fails,
// named, and so does a field only tests write, unless testOnlyFieldAllow
// gives its reason: a knob only a package's own tests turn is an unexported
// field, a test seam, not part of the package's surface.
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
// testOnlyFieldAllow names the exported config fields that only tests write
// and that stay exported, each with its reason. An entry whose field gains a
// writer outside tests, or is gone, fails the census.
var testOnlyFieldAllow = map[string]string{
	"internal/ufabe.Config.CandidateProbeInterval": "vfabric's chaos test reads it through Agent.Config() to wait out one scan",
}

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
	testOnlyFields := map[string]bool{}
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
				testOnlyFields[key+"."+name] = true
				if reason, ok := testOnlyFieldAllow[key+"."+name]; ok {
					t.Logf("%s.%s: written only by tests (%s), kept exported: %s", key, name, site, reason)
				} else {
					t.Errorf("%s.%s: written only by tests (%s) — make it an unexported field", key, name, site)
				}
				continue
			}
			orphans++
			t.Errorf("%s.%s: no writer outside its package's defaulting — make it a constant", key, name)
		}
	}
	for field := range testOnlyFieldAllow {
		if !testOnlyFields[field] {
			t.Errorf("testOnlyFieldAllow: %s is gone or has a writer outside tests now", field)
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

// exportAllow names the exported package-level names ("dir.Name") and
// methods ("dir.Type.Method") under internal/ that stay exported with no
// caller outside their package, each with its reason. An entry whose name
// gains an outside caller, or is gone, fails the census: the list holds only
// what it must.
var exportAllow = map[string]string{}

// stdlibMethods are the method names the standard library calls through its
// own interfaces (fmt.Stringer, error, encoding's and json's marshalers,
// http.Handler, sort.Interface, io's readers, writers and closers): a
// method of one of these names is used even when no code of the module
// selects it.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
}

// TestExportCensus holds "every exported name earns an outside caller": a
// package-level exported func, type, var or const declared in a non-test
// file of internal/P must be named by something outside P — product code,
// cmd/, bench/, the root package, another package's tests — or by P's own
// external _test package. A type also counts when a counted name mentions
// it: in a func's signature, a var's or const's declared type, a type's
// definition (its exported fields and interface methods) or the signature of
// the type's exported methods — sim.EngineStats is named by Engine.Stats.
// Every other exported name fails, named: unexport it, delete it, or give it
// an entry in exportAllow with its reason.
//
// An exported method of an exported type declared in a non-test file of
// internal/P is held to the same rule by name: it is used when a file
// outside P, or P's external _test package, has a selector `x.Method` of
// its name, or when any interface type of the module, or one of the
// standard library's in stdlibMethods, declares a method of its name.
//
// The census reads syntax, not types: a use of a package-level name is a
// selector `p.Name` whose `p` is an import of internal/P in that file. A
// local variable that shadows an import can only make a name look used,
// never unused. A method's receiver is not resolved, so any selector of its
// name counts — another type's method or field of that name included — and
// the census can miss an unused method that shares its name with a used one,
// but cannot blame a method that is used.
func TestExportCensus(t *testing.T) {
	fset, files := parseTree(t)

	// Every candidate, keyed "dir.Name", with the expressions that mention
	// the types it exposes; for a type, its exported methods' signatures too.
	type decl struct {
		pos   token.Pos
		exprs []ast.Expr
	}
	decls := map[string]*decl{}
	methods := map[string][]ast.Expr{} // "dir.Type" → its exported methods' signatures
	type method struct {
		pos       token.Pos
		dir, name string
	}
	methodDecls := map[string]method{} // "dir.Type.Method" of an exported type
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls[f.dir+"."+d.Name.Name] = &decl{d.Name.Pos(), []ast.Expr{d.Type}}
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					methods[f.dir+"."+id.Name] = append(methods[f.dir+"."+id.Name], d.Type)
					if id.IsExported() {
						methodDecls[f.dir+"."+id.Name+"."+d.Name.Name] = method{d.Name.Pos(), f.dir, d.Name.Name}
					}
				}
			case *ast.GenDecl:
				var carried ast.Expr // a const group's implicit type
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[f.dir+"."+s.Name.Name] = &decl{s.Name.Pos(), []ast.Expr{s.Type}}
						}
					case *ast.ValueSpec:
						if s.Type != nil || len(s.Values) > 0 {
							carried = s.Type
						}
						for _, name := range s.Names {
							if name.IsExported() {
								d := &decl{pos: name.Pos()}
								if carried != nil {
									d.exprs = []ast.Expr{carried}
								}
								decls[f.dir+"."+name.Name] = d
							}
						}
					}
				}
			}
		}
	}

	// The names something outside their package names; for a method name,
	// the dirs whose files select it (an external _test package's as
	// "dir_test") and whether an interface declares it.
	used := map[string]bool{}
	selectedFrom := map[string]map[string]bool{}
	declaredByInterface := map[string]bool{}
	var work []string
	use := func(key string) {
		if _, ok := decls[key]; ok && !used[key] {
			used[key] = true
			work = append(work, key)
		}
	}
	for _, f := range files {
		pkgs := map[string]string{} // local name of every import of the module → its dir
		for _, im := range f.ast.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			if !strings.HasPrefix(p, "ufab/") {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			pkgs[name] = strings.TrimPrefix(p, "ufab/")
		}
		external := strings.HasSuffix(f.ast.Name.Name, "_test")
		from := f.dir
		if external {
			from += "_test"
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if selectedFrom[n.Sel.Name] == nil {
					selectedFrom[n.Sel.Name] = map[string]bool{}
				}
				selectedFrom[n.Sel.Name][from] = true
				if pkg, ok := n.X.(*ast.Ident); ok {
					if dir, ok := pkgs[pkg.Name]; ok && (dir != f.dir || external) {
						use(dir + "." + n.Sel.Name)
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						declaredByInterface[name.Name] = true
					}
				}
			}
			return true
		})
	}

	// mentions calls visit with every package-local name e mentions, skipping
	// unexported struct fields and interface methods.
	var mentions func(e ast.Node, visit func(string))
	mentions = func(e ast.Node, visit func(string)) {
		ast.Inspect(e, func(n ast.Node) bool {
			var list *ast.FieldList
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's name: counted where it is declared
			case *ast.Ident:
				visit(n.Name)
				return true
			case *ast.StructType:
				list = n.Fields
			case *ast.InterfaceType:
				list = n.Methods
			default:
				return true
			}
			for _, fl := range list.List {
				exported := len(fl.Names) == 0 // embedded
				for _, name := range fl.Names {
					exported = exported || name.IsExported()
				}
				if exported {
					mentions(fl.Type, visit)
				}
			}
			return false
		})
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		dir := key[:strings.LastIndex(key, ".")]
		visit := func(name string) { use(dir + "." + name) }
		for _, e := range decls[key].exprs {
			mentions(e, visit)
		}
		for _, e := range methods[key] {
			mentions(e, visit)
		}
	}

	var keys []string
	for key := range decls {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	unused := 0
	for _, key := range keys {
		if _, allowed := exportAllow[key]; allowed || used[key] {
			continue
		}
		unused++
		t.Errorf("%s: %s: nothing outside its package names it — unexport it, delete it or allowlist it",
			fset.Position(decls[key].pos), key)
	}
	var methodKeys []string
	for key := range methodDecls {
		methodKeys = append(methodKeys, key)
	}
	sort.Strings(methodKeys)
	methodUsed := map[string]bool{}
	unusedMethods := 0
	for _, key := range methodKeys {
		m := methodDecls[key]
		ok := declaredByInterface[m.name] || stdlibMethods[m.name]
		for from := range selectedFrom[m.name] {
			ok = ok || from != m.dir
		}
		if ok {
			methodUsed[key] = true
			continue
		}
		if _, allowed := exportAllow[key]; allowed {
			continue
		}
		unusedMethods++
		t.Errorf("%s: %s: nothing outside its package selects it and no interface declares it — unexport it, delete it or allowlist it",
			fset.Position(methodDecls[key].pos), key)
	}
	for key, reason := range exportAllow {
		_, declared := decls[key]
		_, method := methodDecls[key]
		switch {
		case !declared && !method:
			t.Errorf("exportAllow: %s is gone (%s)", key, reason)
		case used[key] || methodUsed[key]:
			t.Errorf("exportAllow: %s has an outside caller now (%s)", key, reason)
		}
	}
	t.Logf("%d exported package-level names under internal/, %d named from outside, %d unused; %d exported methods of exported types, %d used, %d unused; %d allowlisted",
		len(decls), len(used), unused, len(methodDecls), len(methodUsed), unusedMethods, len(exportAllow))
}

// packageAllow names the packages under internal/ that keep a package of
// their own with a single importer, each with its reason, which begins with
// one of the rule's two: "a mechanism of the paper" or "a seam more than
// one package needs". An entry whose package gains a second importer, or is
// gone, fails the census.
var packageAllow = map[string]string{
	"internal/apps":          "a mechanism of the paper: the application workloads of §5.3 (the key-value and bulk-fetch tenants of Fig 13, the block-storage task mix of Fig 14), written against apps.Net so they run over any fabric",
	"internal/baseline/host": "a mechanism of the paper: the two alternatives of §5.1, PicNIC′+WCC+Clove and ES+Clove, a deployment of their own beside vfabric",
	"internal/resmodel":      "a mechanism of the paper: the analytic hardware-cost model behind Tables 3 and 4",
}

// TestPackageCensus holds "a package earns its line": a package under
// internal/ that exactly one other package imports from non-test code
// (bench/ and cmd/ count; tests do not) is part of its importer and belongs
// in it, as unexported types, unless packageAllow gives a reason. A package
// no other package imports fails too. It reads the import lines of the
// files parseTree parses.
func TestPackageCensus(t *testing.T) {
	_, files := parseTree(t)
	importers := map[string]map[string]bool{} // dir under internal/ → the dirs importing it
	for _, f := range files {
		if strings.HasPrefix(f.dir, "internal/") && importers[f.dir] == nil {
			importers[f.dir] = map[string]bool{}
		}
	}
	for _, f := range files {
		if f.test {
			continue
		}
		for _, im := range f.ast.Imports {
			dir := strings.TrimPrefix(strings.Trim(im.Path.Value, `"`), "ufab/")
			if imps := importers[dir]; imps != nil && dir != f.dir {
				imps[f.dir] = true
			}
		}
	}
	var dirs []string
	for dir := range importers {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		var from []string
		for imp := range importers[dir] {
			from = append(from, imp)
		}
		sort.Strings(from)
		reason, allowed := packageAllow[dir]
		switch {
		case len(from) > 1:
			if allowed {
				t.Errorf("packageAllow: %s has %d importers now (%s)", dir, len(from), reason)
			}
		case allowed:
			t.Logf("%s: imported by %v only, kept: %s", dir, from, reason)
		case len(from) == 0:
			t.Errorf("%s: no other package imports it — delete it or allowlist it", dir)
		default:
			t.Errorf("%s: only %s imports it — fold it into its importer as unexported types or allowlist it", dir, from[0])
		}
	}
	for dir, reason := range packageAllow {
		if importers[dir] == nil {
			t.Errorf("packageAllow: %s is gone (%s)", dir, reason)
		}
		if !strings.HasPrefix(reason, "a mechanism of the paper") && !strings.HasPrefix(reason, "a seam more than one package needs") {
			t.Errorf("packageAllow: %s: a reason begins \"a mechanism of the paper\" or \"a seam more than one package needs\", not %q", dir, reason)
		}
	}
	t.Logf("%d packages under internal/, %d allowlisted with one importer", len(dirs), len(packageAllow))
}

package proxy

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoBlockingUnderLock holds the one lock rule par.Guarded cannot
// hold by construction: nothing blocks while a shard, store or relay
// lock is held. The lock is held exactly inside a function passed to
// With or Read, so the test walks every such function of the package —
// and, by name, every package-local function it calls — for a
// time.Sleep, a channel send, receive or select, a WaitGroup.Wait, an
// io.Copy or a call into net, net/http, net/rpc, os/exec or
// database/sql. A go statement and a nested func literal are their own
// timelines and are skipped; sync.Cond.Wait releases the lock while it
// sleeps and is allowed.
func TestNoBlockingUnderLock(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	findings, holders := blockingUnderLock(fset, files)
	for _, f := range findings {
		t.Error(f)
	}
	// The walk must see the critical sections the proxy is built around,
	// or a clean result proves nothing.
	for _, fn := range []string{"serveObject", "runRelay", "next", "reserve", "View", "AppendAt"} {
		if !holders[fn] {
			t.Errorf("found no function passed to With or Read in %s", fn)
		}
	}

	// Each arm of the walk catches what it names, and nothing else.
	const planted = `package proxy
import (
	"io"
	"net/http"
	"sync"
	"time"
)
type plant struct {
	client *http.Client
	wg     sync.WaitGroup
	cond   sync.Cond
	ch     chan int
}
func (p *plant) sleeps()   { p.state.With(func(*int) { time.Sleep(1) }) }
func (p *plant) sends()    { p.state.With(func(*int) { p.ch <- 1 }) }
func (p *plant) receives() { p.state.Read(func(*int) { <-p.ch }) }
func (p *plant) selects()  { p.state.With(func(*int) { select {} }) }
func (p *plant) waits()    { p.state.With(func(*int) { p.wg.Wait() }) }
func (p *plant) copies()   { p.state.With(func(*int) { io.Copy(nil, nil) }) }
func (p *plant) fetches()  { p.state.With(func(*int) { p.get() }) }
func (p *plant) get()      { p.client.Get("") }
func (p *plant) named()    { p.state.With((*plant).get) }
func (p *plant) allowed() {
	p.state.With(func(*int) {
		p.cond.Wait()
		go time.Sleep(1)
		_ = func() { time.Sleep(1) }
		p.wg.Add(1)
	})
}
`
	f, err := parser.ParseFile(fset, "planted.go", planted, 0)
	if err != nil {
		t.Fatal(err)
	}
	findings, _ = blockingUnderLock(fset, []*ast.File{f})
	want := []string{"sleeps", "sends", "receives", "selects", "waits", "copies", "fetches", "named"}
	if len(findings) != len(want) {
		t.Errorf("the planted file has %d findings, want one in each of %v:\n%s", len(findings), want, strings.Join(findings, "\n"))
	}
	for _, fn := range want {
		if !slices.ContainsFunc(findings, func(s string) bool { return strings.Contains(s, " in "+fn+" ") }) {
			t.Errorf("no finding in the planted %s:\n%s", fn, strings.Join(findings, "\n"))
		}
	}
}

// blockingPkgs are the packages whose calls wait on the network or a
// subprocess.
var blockingPkgs = map[string]bool{"net": true, "net/http": true, "net/rpc": true, "os/exec": true, "database/sql": true}

// lockWalk resolves by name, which is all go/parser gives: a call
// x.M() may reach any package-local function or method named M, and a
// name declared as a struct field, parameter or variable of a type
// from another package has every type it is declared with.
type lockWalk struct {
	funcs   map[string][]*ast.FuncDecl
	imports map[*ast.FuncDecl]map[string]string // local import name -> path, of the declaring file
	typed   map[string][]string                 // name -> "path.Type" of each declaration
	blocks  map[string]string                   // function name -> why it blocks
}

// blockingUnderLock returns one finding per function passed to With or
// Read that blocks, and the names of the functions holding one.
func blockingUnderLock(fset *token.FileSet, files []*ast.File) (findings []string, holders map[string]bool) {
	w := &lockWalk{
		funcs:   map[string][]*ast.FuncDecl{},
		imports: map[*ast.FuncDecl]map[string]string{},
		typed:   map[string][]string{},
		blocks:  map[string]string{},
	}
	for _, f := range files {
		imports := map[string]string{}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				w.funcs[x.Name.Name] = append(w.funcs[x.Name.Name], x)
				w.imports[x] = imports
			case *ast.Field:
				w.declare(imports, x.Names, x.Type)
			case *ast.ValueSpec:
				w.declare(imports, x.Names, x.Type)
			}
			return true
		})
	}
	names := slices.Sorted(maps.Keys(w.funcs))
	for changed := true; changed; {
		changed = false
		for _, name := range names {
			for _, fd := range w.funcs[name] {
				if w.blocks[name] == "" && fd.Body != nil {
					if w.blocks[name] = w.reason(w.imports[fd], fd.Body); w.blocks[name] != "" {
						changed = true
					}
				}
			}
		}
	}

	holders = map[string]bool{}
	for _, name := range names {
		for _, fd := range w.funcs[name] {
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				method := lastName(call.Fun)
				if _, ok := call.Fun.(*ast.SelectorExpr); !ok || (method != "With" && method != "Read") {
					return true
				}
				why := ""
				switch arg := call.Args[0].(type) {
				case *ast.FuncLit:
					why = w.reason(w.imports[fd], arg.Body)
				case *ast.Ident, *ast.SelectorExpr:
					name := lastName(arg)
					if w.funcs[name] == nil {
						return true // an io.Reader's Read, not a lock
					}
					if why = w.blocks[name]; why != "" {
						why = "calls " + name + ", which " + why
					}
				default:
					return true
				}
				holders[fd.Name.Name] = true
				if why != "" {
					findings = append(findings, fmt.Sprintf("%s: in %s the function passed to %s holds the lock and %s",
						fset.Position(call.Pos()), fd.Name.Name, method, why))
				}
				return true
			})
		}
	}
	return findings, holders
}

// declare records the package-qualified type of each name, when typ
// names a type from another package.
func (w *lockWalk) declare(imports map[string]string, names []*ast.Ident, typ ast.Expr) {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	sel, ok := typ.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || imports[pkg.Name] == "" {
		return
	}
	for _, name := range names {
		w.typed[name.Name] = append(w.typed[name.Name], imports[pkg.Name]+"."+sel.Sel.Name)
	}
}

// reason is why anything in body blocks, or "".
func (w *lockWalk) reason(imports map[string]string, body *ast.BlockStmt) string {
	why := ""
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.SendStmt:
			why = "sends on a channel"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				why = "receives from a channel"
			}
		case *ast.SelectStmt:
			why = "selects on channels"
		case *ast.CallExpr:
			why = w.callReason(imports, x)
		}
		return why == ""
	})
	return why
}

// callReason is why one call blocks, or "".
func (w *lockWalk) callReason(imports map[string]string, call *ast.CallExpr) string {
	name := lastName(call.Fun)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
			path := imports[pkg.Name]
			switch {
			case blockingPkgs[path]:
				return "calls into " + path
			case path == "time" && name == "Sleep":
				return "calls time.Sleep"
			case path == "io" && (name == "Copy" || name == "CopyN" || name == "CopyBuffer" || name == "ReadAll"):
				return "calls io." + name
			}
			return ""
		}
		recv := lastName(sel.X)
		for _, typ := range w.typed[recv] {
			path := typ[:strings.LastIndex(typ, ".")]
			switch {
			case blockingPkgs[path]:
				return "calls into " + path + " through " + recv + "." + name
			case typ == "sync.WaitGroup" && name == "Wait":
				return "waits on the sync.WaitGroup " + recv
			}
		}
	}
	if why := w.blocks[name]; why != "" {
		return "calls " + name + ", which " + why
	}
	return ""
}

// lastName is the name an expression ends in: x for x, M for a.b.M and
// for (*T).M, "" for anything else.
func lastName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

package shmd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachableExempt lists the exported functions and methods that no
// program calls by name but that stay, keyed by package directory and
// name ("dir.Name"), or by package directory alone for a whole
// package. One reason each.
var reachableExempt = map[string]string{
	"cmd/bench.LocalAddr":        "net.Conn method of the in-memory codec conn, called through the interface",
	"cmd/bench.SetWriteDeadline": "net.Conn method of the in-memory codec conn, called through the interface",
	"internal/rng.Int63":         "rand.Source method, called through math/rand",

	"pkg/sdk.Ping":             "public SDK: liveness probe for client programs",
	"pkg/sdk.OpenWindowStream": "public SDK: opens a STREAM session for client programs",
	"pkg/sdk.Push":             "public SDK: feeds windows into an open stream",

	"internal/conform": "statistical conformance toolkit; its test suite is the program that drives it",

	"internal/serve.Drain": "graceful-drain entry point for programs that embed the server",

	"internal/volt.Calibrations": "test witness, read by serve tests through an interface",

	// PAPER.md's substitution table makes the MSR 0x150 encoding part
	// of the model; FuzzDecodeOffsetWrite fuzzes its inverse.
	"internal/volt.WriteMSR":          "MSR 0x150 write path of the undervolting model",
	"internal/volt.EncodeOffsetWrite": "MSR 0x150 encoding of the undervolting model",
}

// TestEveryExportedFuncIsCalled parses the non-test Go files of both
// modules (the root module and perfbench, which builds against it
// through a replace directive) and fails on any exported top-level
// function or method that nothing uses outside its own declaration,
// and on any exemption that no longer exempts one. Comments are not
// parsed, so a mention in a doc comment does not count as a use.
//
// A top-level function is matched by package: a use is its bare name
// in a file of the declaring directory, or a pkg.Name selector whose
// pkg resolves through that file's imports to the declaring package.
// Methods are matched by name only, since resolving a receiver needs
// type checking: a use of a name in any package keeps every method of
// that name alive.
func TestEveryExportedFuncIsCalled(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	dirs := map[*ast.File]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		dirs[f] = filepath.ToSlash(filepath.Dir(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	scanned := map[string]bool{}
	for _, dir := range dirs {
		scanned[dir] = true
	}
	if !scanned["internal/wire"] || !scanned["perfbench"] {
		t.Fatal("the scan must cover the root module and perfbench")
	}

	// Both modules map directories to import paths the same way: the
	// root module is "shmd" and perfbench is "shmd/perfbench".
	dirOf := map[string]string{}   // import path -> directory
	pkgName := map[string]string{} // import path -> package name
	for f, dir := range dirs {
		path := "shmd"
		if dir != "." {
			path += "/" + dir
		}
		dirOf[path] = dir
		pkgName[path] = f.Name.Name
	}

	// names counts every identifier occurrence by name, for methods.
	// funcs counts the uses of top-level functions by "dir.Name": bare
	// names by the directory of the file they occur in, selectors by
	// the directory of the package they resolve to.
	names := map[string]int{}
	funcs := map[string]int{}
	for f, dir := range dirs {
		imports := map[string]string{} // local name -> directory
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			to, ok := dirOf[path]
			if !ok {
				continue
			}
			local := pkgName[path]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = to
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				sels[sel.Sel] = true
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcs[imports[x.Name]+"."+sel.Sel.Name]++
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name]++
				if !sels[id] {
					funcs[dir+"."+id.Name]++
				}
			}
			return true
		})
	}
	var dead []string
	exempted := map[string]bool{}
	for _, f := range files {
		dir := dirs[f]
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			// inside counts the declaration's own occurrences of its
			// name: the name it declares, and any recursive call.
			inside := 0
			ast.Inspect(fn, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == fn.Name.Name {
					inside++
				}
				return true
			})
			key := dir + "." + fn.Name.Name
			uses := funcs[key]
			if fn.Recv != nil {
				uses = names[fn.Name.Name]
			}
			if uses > inside {
				continue
			}
			switch {
			case reachableExempt[dir] != "":
				exempted[dir] = true
			case reachableExempt[key] != "":
				exempted[key] = true
			default:
				dead = append(dead, fset.Position(fn.Pos()).String()+" "+fn.Name.Name)
			}
		}
	}
	for key := range reachableExempt {
		if !exempted[key] {
			t.Errorf("exemption %s matches no uncalled function; remove it", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported function with no caller outside its declaration: %s", d)
	}
}

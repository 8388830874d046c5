// The exported-API snapshot: api.txt lists every exported identifier of
// the module's packages, so a change that adds one shows in its diff and
// "no new exported identifier unless another goes" is checked here, not
// by a reader. Rewrite the file after a deliberate change with
//
//	go test -run TestAPISnapshot . -update-api
package picpar_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite api.txt from the source")

// exportedAPI walks the module's non-test Go files (the benchmark module,
// hidden directories and testdata excluded) and returns one sorted line
// per exported identifier: its package and kind, then its name, qualified
// by its type for methods and fields. Files of every build tag count.
func exportedAPI(t *testing.T) []string {
	var api []string
	add := func(pkg, kind, name string) { api = append(api, pkg+": "+kind+" "+name) }
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata" || n == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("picpar", filepath.ToSlash(filepath.Dir(p)))
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					add(pkg, "func", d.Name.Name)
				case ast.IsExported(receiverType(d.Recv.List[0].Type)):
					add(pkg, "method", receiverType(d.Recv.List[0].Type)+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(pkg, "type", s.Name.Name)
							members(s, func(kind, name string) { add(pkg, kind, s.Name.Name+"."+name) })
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(pkg, d.Tok.String(), n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(api)
	return slices.Compact(api)
}

// receiverType is the name of a method's receiver type, pointer and type
// parameters stripped.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// members reports a struct type's exported fields and an interface type's
// exported methods; an embedded member is named by its type.
func members(s *ast.TypeSpec, add func(kind, name string)) {
	var list *ast.FieldList
	kind := "field"
	switch x := s.Type.(type) {
	case *ast.StructType:
		list = x.Fields
	case *ast.InterfaceType:
		list, kind = x.Methods, "method"
	default:
		return
	}
	for _, f := range list.List {
		if len(f.Names) == 0 {
			if n := receiverType(f.Type); ast.IsExported(n) {
				add("embedded", n)
			}
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				add(kind, n.Name)
			}
		}
	}
}

// TestAPISnapshot compares the module's exported identifiers with api.txt.
func TestAPISnapshot(t *testing.T) {
	got := exportedAPI(t)
	text := strings.Join(got, "\n") + "\n"
	if *updateAPI {
		if err := os.WriteFile("api.txt", []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var diff []string
	for _, l := range got {
		if _, found := slices.BinarySearch(want, l); !found {
			diff = append(diff, "+ "+l)
		}
	}
	for _, l := range want {
		if _, found := slices.BinarySearch(got, l); !found {
			diff = append(diff, "- "+l)
		}
	}
	if len(diff) > 0 {
		t.Errorf("exported API differs from api.txt (rewrite it with go test -run TestAPISnapshot . -update-api):\n%s",
			strings.Join(diff, "\n"))
	}
}

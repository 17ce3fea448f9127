package graingraph_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// grainMapAllowed lists the only non-test files that may declare a map
// keyed by grain ID. Every other per-grain association is a slice indexed
// by grain number (profile.Numbering); a map[profile.GrainID]… anywhere
// else re-hashes every grain's ID string in a pass that already has its
// number. To add a file here, say in its comment why the IDs it hashes have
// no number yet.
var grainMapAllowed = map[string]string{
	"internal/profile/numbering.go": "the one id → number index, for IDs that arrive from outside",
	"internal/core/graph.go":        "grains a hand-assembled graph names that its trace does not record",
}

var grainMapRE = regexp.MustCompile(`map\[(profile\.)?GrainID\]`)

// TestNoGrainIDMaps fails when a map keyed by grain ID appears in non-test
// code outside the allow-list, so the hashing cannot creep back one helper
// at a time.
func TestNoGrainIDMaps(t *testing.T) {
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/out holds the benchmark's build cache and scratch.
			if path == filepath.Join("bench", "out") || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if i := strings.Index(text, "//"); i >= 0 {
				text = text[:i]
			}
			// Only internal/profile may spell the type without its package.
			m := grainMapRE.FindStringSubmatch(text)
			if m == nil || (m[1] == "" && filepath.Dir(path) != filepath.Join("internal", "profile")) {
				continue
			}
			p := filepath.ToSlash(path)
			seen[p] = true
			if _, ok := grainMapAllowed[p]; !ok {
				t.Errorf("%s:%d: map keyed by grain ID; index a slice by grain number instead (see profile.Numbering)", p, line)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range grainMapAllowed {
		if !seen[p] {
			t.Errorf("%s is allow-listed but no longer declares a grain-ID map: drop it from grainMapAllowed", p)
		}
	}
}

// recordIDFields lists the only fields of the trace's record types that
// may hold a grain ID: a record names itself by ID, and every other grain
// it refers to by grain number.
var recordIDFields = map[string]bool{"TaskRecord.ID": true}

// TestNoGrainIDReferences fails when a field of a record type of
// profile.Trace — a struct reached from Trace through exported fields —
// holds a GrainID or a []GrainID outside recordIDFields, so a reference by
// ID string cannot creep back into the records beside the numbers.
func TestNoGrainIDReferences(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "profile"), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string]*ast.StructType{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						structs[ts.Name.Name] = st
					}
				}
				return true
			})
		}
	}
	// elem strips pointers and slices off a field type and names what is
	// left when it is a type of the package.
	elem := func(e ast.Expr) (name string, slice bool) {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.ArrayType:
				e, slice = x.Elt, true
			case *ast.Ident:
				return x.Name, slice
			default:
				return "", slice
			}
		}
	}
	seen := map[string]bool{"Trace": true}
	queue := []string{"Trace"}
	for len(queue) > 0 {
		typ := queue[0]
		queue = queue[1:]
		for _, field := range structs[typ].Fields.List {
			name, _ := elem(field.Type)
			for _, id := range field.Names {
				if !id.IsExported() {
					continue
				}
				if name == "GrainID" && !recordIDFields[typ+"."+id.Name] {
					t.Errorf("profile.%s.%s holds a grain ID; refer to a grain by its number (see profile.Numbering)", typ, id.Name)
				}
				if _, ok := structs[name]; ok && !seen[name] {
					seen[name] = true
					queue = append(queue, name)
				}
			}
		}
	}
	for f := range recordIDFields {
		if !seen[strings.Split(f, ".")[0]] {
			t.Errorf("%s is allow-listed but its type is no record type", f)
		}
	}
	if !seen["Boundary"] || !seen["Fragment"] {
		t.Errorf("the walk from Trace reached %v, not the task records' boundaries and fragments", seen)
	}
}

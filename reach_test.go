package graingraph_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// shippedBinaries are the programs this repository ships. Every function
// declared in non-test code under internal/ must be linked into at least
// one of them, or be covered by reachAllowed.
var shippedBinaries = []string{"./cmd/grainbench", "./cmd/grainserved", "./cmd/grainview", "./bench"}

// reachAllowed lists the only unlinked code under internal/. A key is a
// package directory, a file, or one function spelled as the linker spells
// it ("internal/core.(*Graph).Validate"). Each entry asserts that nothing
// it covers is linked; an entry that covers a linked function, or covers
// nothing, fails the test, so the list cannot outlive its reasons. To add
// an entry, say in its value why no binary needs the code yet it stays.
var reachAllowed = map[string]string{
	"internal/colenc/colenctest":         "test-helper package: the column size contract every codec's tests check",
	"internal/whatif.(*Engine).EvalFull": "oracle: the sparse and delta evaluations are pinned to it bit for bit",
	"internal/core.(*Graph).Validate":    "oracle: core, expt and whatif tests hold every built graph to the paper's structure",
}

// TestEveryInternalFunctionLinked builds the shipped binaries with
// inlining off, lists their text symbols with `go tool nm`, and fails on
// any function or method declared under internal/ that none of them links
// and reachAllowed does not cover.
func TestEveryInternalFunctionLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the shipped binaries")
	}
	dir := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, shippedBinaries...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := map[string]bool{}
	for _, b := range shippedBinaries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, filepath.Base(b))).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "  <addr> T <name>"; a name may hold spaces (struct shapes).
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripTypeArgs(f[2])] = true
			}
		}
	}

	allowHits := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(path)
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Body == nil {
				continue
			}
			sym := pkg + "." + funcSymbol(fn)
			allowed := ""
			for _, k := range []string{sym, file, pkg} {
				if _, ok := reachAllowed[k]; ok {
					allowed = k
					break
				}
			}
			isLinked := linked["graingraph/"+sym]
			switch {
			case allowed != "" && isLinked:
				t.Errorf("%s is linked but covered by reachAllowed[%q]: drop the entry", sym, allowed)
				allowHits[allowed]++
			case allowed != "":
				allowHits[allowed]++
			case !isLinked:
				t.Errorf("%s:%d: %s is linked by no shipped binary: delete it or give it a shipped caller", file, fset.Position(fn.Pos()).Line, sym)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for k := range reachAllowed {
		if allowHits[k] == 0 {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("reachAllowed[%q] covers no function under internal/: drop the entry", k)
	}
}

// funcSymbol spells a declaration as the linker does: F, T.M or (*T).M,
// with any type parameters left off.
func funcSymbol(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")." + fn.Name.Name
	}
	return name + "." + fn.Name.Name
}

// stripTypeArgs drops every bracketed instantiation from a linker symbol,
// so "ggp.(*slab[go.shape.[]uint8]).at" reads "ggp.(*slab).at". The
// brackets nest ([]T, map[K]V inside a shape), so only a balanced strip
// finds the closing one.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

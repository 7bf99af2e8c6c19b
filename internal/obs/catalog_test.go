package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registeredNames parses every non-test Go file of the module under
// root and returns the metric names passed as string literals to a
// Counter, Gauge or Histogram call, mapped to the file that registers
// each. The perfbench module is benchmark tooling, not production code,
// and is skipped.
func registeredNames(t *testing.T, root string) map[string]string {
	t.Helper()
	names := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "perfbench", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "Histogram":
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if name, err := strconv.Unquote(lit.Value); err == nil {
				rel, _ := filepath.Rel(root, path)
				names[name] = rel
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestMetricCatalogListsEveryName keeps docs/OBSERVABILITY.md's metric
// catalog in step with the code: every metric name a production package
// registers must appear in a catalog table row.
func TestMetricCatalogListsEveryName(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	names := registeredNames(t, root)
	if len(names) < 50 {
		t.Fatalf("found only %d registered metric names; the source scan is broken", len(names))
	}
	var missing []string
	for name, file := range names {
		if !strings.Contains(string(doc), "| `"+name+"` |") {
			missing = append(missing, name+" ("+file+")")
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("docs/OBSERVABILITY.md's catalog lacks %d registered metrics:\n%s", len(missing), strings.Join(missing, "\n"))
	}
}

package esm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusAllowed lists exported functions and methods under internal/
// that no non-test Go file names, each with the reason it stays.
var censusAllowed = map[string]string{
	// Called by the standard library through an interface.
	"MarshalJSON":   "encoding/json calls it through json.Marshaler",
	"UnmarshalJSON": "encoding/json calls it through json.Unmarshaler",
	"Less":          "sort and container/heap call it through sort.Interface",
	"Swap":          "sort and container/heap call it through sort.Interface",
	"Unwrap":        "errors.Is and errors.As call it on replay's re-raised source panic",

	// Accessors and fixtures that tests in other packages share.
	"SpinDownEnabled":  "storage state read by replay and fault tests",
	"BatteryOK":        "battery state read by fault tests across packages",
	"FaultInjector":    "lets replay and fleet tests inspect the injected faults",
	"SortLogical":      "test fixture that orders hand-built traces",
	"AllEventTypes":    "tests assert every event kind occurs in the golden streams",
	"ValidatePerfetto": "tests check tracer output against the Perfetto schema",
	"AblationPolicies": "bench_test.go's E-X2 ablation runs these policies",
	"Evaluate":         "bench_test.go's figure suite replays each workload through it",

	// Safety code.
	"PlanErrors": "counts MigrateItem failures during plan execution; the error record stays",
}

// TestCensusNoDeadAPI fails for every exported top-level function or
// method declared under internal/ whose name no non-test Go file under
// cmd/, internal/, examples/ or perf/ uses outside its own declaration.
//
// Matching is by name only, so a dead function that shares its name with
// a live one gets through: an unserved package-level obs.Handler would
// pass because esmd serves the method fleet.(*Fleet).Handler. A deletion
// list therefore still needs checking by hand; this test only keeps
// plainly dead API from growing back.
func TestCensusNoDeadAPI(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct{ name, pos string }
	var decls []decl
	for _, root := range []string{"cmd", "internal", "examples", "perf"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = fd.Name.Name
					if root == "internal" && fd.Name.IsExported() {
						decls = append(decls, decl{self, fset.Position(fd.Pos()).String()})
					}
				}
				countIdents(d, self, uses)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var dead []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		if uses[d.name] == 0 && censusAllowed[d.name] == "" {
			dead = append(dead, d.name+" ("+d.pos+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but never used outside tests: %s", d)
	}
	// An entry whose function is gone or now used has no reason left.
	for name := range censusAllowed {
		if !declared[name] || uses[name] > 0 {
			t.Errorf("census allowlist entry %s is stale: delete it", name)
		}
	}
}

// countIdents adds every identifier under n to uses, except those named
// self: a declaration naming itself, as a recursive call does, is not a
// use.
func countIdents(n ast.Node, self string, uses map[string]int) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != self {
			uses[id.Name]++
		}
		return true
	})
}

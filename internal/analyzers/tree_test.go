package analyzers

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintCleanOnTree runs every pass over the real module — the same
// invocation as `go run ./cmd/dlhtlint ./...` in CI — and fails on any
// finding. A contract regression anywhere in the serving code fails
// this test before it fails in production.
func TestLintCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, pkg := range pkgs {
		for _, a := range All() {
			for _, d := range Run(a, pkg) {
				t.Errorf("%s: %s [%s]", pkg.Fset.Position(d.Pos), d.Message, a.Name)
			}
		}
		// Every deadline-check-and-delete lives in expiry.KV, under its
		// stripe lock: nothing is left for a stripelock suppression to
		// excuse, and a new one means a second owner has appeared.
		if strings.HasSuffix(pkg.ImportPath, "internal/analyzers") {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				if strings.Contains(cg.Text(), "dlht:ok:stripelock") {
					t.Errorf("%s: stripelock suppression outside the analyzers' own fixtures", pkg.Fset.Position(cg.Pos()))
				}
			}
		}
	}
}

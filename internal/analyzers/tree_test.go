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
	}
}

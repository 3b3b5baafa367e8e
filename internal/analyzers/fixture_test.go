package analyzers

// Fixture harness in the analysistest mold (x/tools is unavailable in
// the build image, so this is a minimal offline equivalent): each pass
// has a package under testdata/src/<pass>/ whose `// want `regexp``
// comments declare the diagnostics the pass must produce on that line
// — nothing more, nothing less. Fixtures type-check against the
// standard library from GOROOT source via the "source" importer, so no
// export data or network is needed.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile("// want `([^`]+)`")

type wantKey struct {
	file string
	line int
}

func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tp, err := conf.Check("fixture/"+name, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	pkg := &Package{ImportPath: "fixture/" + name, Fset: fset, Files: files, Types: tp, Info: info}
	diags := Run(a, pkg)

	// Collect expectations from // want comments.
	want := make(map[wantKey][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				want[k] = append(want[k], regexp.MustCompile(m[1]))
			}
		}
	}

	matched := make(map[wantKey][]bool)
	for k, res := range want {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := wantKey{pos.Filename, pos.Line}
		found := false
		for i, re := range want[k] {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for k, res := range want {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s:%d: missing diagnostic matching %q", k.file, k.line, re)
			}
		}
	}
}

func TestAckGateFixture(t *testing.T)     { runFixture(t, AckGate, "ackgate") }
func TestPipeBarrierFixture(t *testing.T) { runFixture(t, PipeBarrier, "pipebarrier") }
func TestSentinelCmpFixture(t *testing.T) { runFixture(t, SentinelCmp, "sentinelcmp") }
func TestHotPathFixture(t *testing.T)     { runFixture(t, HotPath, "hotpath") }

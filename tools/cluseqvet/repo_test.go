package main

import (
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cluseq/tools/cluseqvet/internal/analysis"
)

// repoRoot is the main module this tool polices, relative to this test's
// working directory (tools/cluseqvet).
const repoRoot = "../.."

// TestRepoPassesClean is the contract the CI lint job enforces: the repo's
// own sources produce zero diagnostics. Because unused waivers are
// themselves diagnostics, a clean run additionally proves every
// //cluseq:allow in the tree still suppresses something real.
func TestRepoPassesClean(t *testing.T) {
	diags, err := RunDir(repoRoot, "./...")
	if err != nil {
		t.Fatalf("RunDir: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestSimilarityReachableFunctionsAreHotpath walks the static call graph
// from the similarity entry points — the compiled Snapshot scan, the
// tree-shaped oracle and fallback, and Snapshot.Score, the one rule
// choosing between them — and asserts every module function reachable
// from them carries //cluseq:hotpath, so the whole scoring loop stays
// under the analyzer's no-alloc/no-lock contract. Call sites under a
// hotpath waiver are treated as leaving the hot region (e.g. the cold
// buildLogBg miss path), mirroring the analyzer's own escape hatch, and
// closure bodies are skipped the same way the analyzer skips them.
func TestSimilarityReachableFunctionsAreHotpath(t *testing.T) {
	pkgs, err := analysis.Load(repoRoot, "./internal/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	type fnRef struct {
		pkg  *analysis.Package
		decl *ast.FuncDecl
	}
	byPkg := map[string]*analysis.Package{}
	decls := map[string]fnRef{} // "pkgPath\x00funcKey" → declaration
	for _, p := range pkgs {
		byPkg[p.ImportPath] = p
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					decls[p.ImportPath+"\x00"+analysis.FuncKey(fd)] = fnRef{p, fd}
				}
			}
		}
	}

	// Lines covered by a hotpath waiver, per file. The analyzer resolves
	// waivers to statement spans; for call-graph purposes the waiver's own
	// line (end-of-line form) and the next line (standalone form) identify
	// the escaping call sites precisely enough for this repo.
	waivedLines := map[string]map[int]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//cluseq:allow hotpath:") {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					m := waivedLines[pos.Filename]
					if m == nil {
						m = map[int]bool{}
						waivedLines[pos.Filename] = m
					}
					m[pos.Line], m[pos.Line+1] = true, true
				}
			}
		}
	}

	roots := []struct{ pkg, key string }{
		{"cluseq/internal/pst", "Snapshot.Similarity"},
		{"cluseq/internal/pst", "Tree.Similarity"},
		{"cluseq/internal/pst", "Snapshot.Score"},
	}
	queue := make([]string, 0, len(roots))
	seen := map[string]bool{}
	for _, r := range roots {
		id := r.pkg + "\x00" + r.key
		if _, ok := decls[id]; !ok {
			t.Fatalf("entry point %s.%s not found — did it move?", r.pkg, r.key)
		}
		queue = append(queue, id)
		seen[id] = true
	}

	var reached int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		fn := decls[id]
		pkgPath, key, _ := strings.Cut(id, "\x00")
		reached++
		if !fn.pkg.Dirs.Annotated(key, "hotpath") {
			t.Errorf("%s: %s.%s is reachable from the similarity scan but lacks //cluseq:hotpath",
				fn.pkg.Fset.Position(fn.decl.Pos()), pkgPath, key)
		}
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			if _, isClosure := n.(*ast.FuncLit); isClosure {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pos := fn.pkg.Fset.Position(call.Pos())
			if waivedLines[pos.Filename][pos.Line] {
				return true
			}
			callee := analysis.Callee(fn.pkg.Info, call)
			if callee == nil {
				return true
			}
			cPkg, cKey := analysis.CalleeKey(callee)
			if _, inModule := byPkg[cPkg]; !inModule {
				return true // stdlib: the analyzer's allowlist polices these
			}
			cID := cPkg + "\x00" + cKey
			if _, ok := decls[cID]; ok && !seen[cID] {
				seen[cID] = true
				queue = append(queue, cID)
			}
			return true
		})
	}
	if reached < 5 {
		t.Fatalf("only %d functions reachable from the similarity entry points; the call-graph walk is likely broken", reached)
	}
	t.Logf("verified %d reachable functions carry //cluseq:hotpath", reached)
}

// TestSeededViolationFailsBuild proves the enforcement path end to end: a
// module with a deliberate contract violation must fail `go vet
// -vettool=cluseqvet`, with the diagnostic naming the violation. This is
// the negative control for the clean-repo test above — if the driver ever
// stopped reporting, both CI and TestRepoPassesClean would pass vacuously.
func TestSeededViolationFailsBuild(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module seeded\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "seeded.go"), `package seeded

import "math"

// Hot pretends to be on the scoring path.
//
//cluseq:hotpath
func Hot(x float64) float64 {
	return math.Log(x)
}
`)

	t.Run("standalone", func(t *testing.T) {
		diags, err := RunDir(dir, "./...")
		if err != nil {
			t.Fatalf("RunDir: %v", err)
		}
		if len(diags) == 0 {
			t.Fatal("seeded math.Log in a hotpath function produced no diagnostics")
		}
		if !strings.Contains(diags[0].String(), "math.Log") {
			t.Errorf("diagnostic does not name the violation: %s", diags[0])
		}
	})

	t.Run("vettool", func(t *testing.T) {
		bin := filepath.Join(t.TempDir(), "cluseqvet")
		build := exec.Command("go", "build", "-o", bin, ".")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building cluseqvet: %v\n%s", err, out)
		}
		vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
		vet.Dir = dir
		out, err := vet.CombinedOutput()
		if err == nil {
			t.Fatalf("go vet -vettool passed on a seeded violation\n%s", out)
		}
		if !strings.Contains(string(out), "math.Log") {
			t.Errorf("vet output does not name the violation:\n%s", out)
		}
	})
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

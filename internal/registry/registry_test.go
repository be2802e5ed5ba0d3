package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/mmapfile"
	"cluseq/internal/obs"
	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// makeClassifier builds a tiny single-cluster classifier trained on the
// given strings over alphabet "abcd".
func makeClassifier(t *testing.T, trains ...string) *core.Classifier {
	t.Helper()
	db := seq.NewDatabase(seq.MustAlphabet("abcd"))
	tree := pst.MustNew(pst.Config{AlphabetSize: 4, MaxDepth: 4, Significance: 1})
	for i, s := range trains {
		if err := db.AddString(fmt.Sprintf("s%d", i), "", s); err != nil {
			t.Fatal(err)
		}
		syms, err := db.Alphabet.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		tree.Insert(syms)
	}
	res := &core.Result{
		Clusters:       []*core.ClusterInfo{{ID: 0, Tree: tree}},
		FinalThreshold: 1.01,
	}
	clf, err := core.NewClassifier(db, res, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// writeBundle saves the classifier atomically as dir/name.cluseq, in
// format v3.
func writeBundle(t *testing.T, dir, name string, clf *core.Classifier) {
	t.Helper()
	tmp, err := os.CreateTemp(dir, name+".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.SaveBundle(tmp, core.BundleOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name+Ext)); err != nil {
		t.Fatal(err)
	}
}

// writeBundleV2 installs core's legacy v2 fixture (two clusters over
// alphabet "abcd") as dir/name.cluseq: no writer for v2 remains, but
// registries must keep serving such bundles.
func writeBundleV2(t *testing.T, dir, name string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "core", "testdata", "classifier_v2.bundle"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+Ext), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeGarbage replaces dir/name.cluseq with junk, atomically. Bundle
// rewrites — even corrupt ones in tests — must go through rename, never
// an in-place overwrite: a truncating rewrite would yank pages out from
// under a mapping the registry may still be serving.
func writeGarbage(t *testing.T, dir, name string) {
	t.Helper()
	tmp, err := os.CreateTemp(dir, name+".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.WriteString("garbage overwrite"); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name+Ext)); err != nil {
		t.Fatal(err)
	}
}

// bump pushes a bundle's modtime forward so a rewrite is always seen as
// changed even on coarse-granularity filesystems.
func bump(t *testing.T, dir, name string, d time.Duration) {
	t.Helper()
	path := filepath.Join(dir, name+Ext)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Now(), fi.ModTime().Add(d)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenLoadsBundles(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "alpha", makeClassifier(t, "ababab", "ababab"))
	writeBundle(t, dir, "beta", makeClassifier(t, "cdcdcd"))
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644)

	r, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || len(rep.Loaded) != 2 {
		t.Fatalf("loaded %d models (report %+v), want 2", r.Len(), rep)
	}
	ms := r.Models()
	if ms[0].Name != "alpha" || ms[1].Name != "beta" {
		t.Fatalf("Models() order: %v, %v", ms[0].Name, ms[1].Name)
	}
	m, ok := r.Get("alpha")
	if !ok || m.Classifier.NumClusters() != 1 {
		t.Fatalf("Get(alpha) = %v, %v", m, ok)
	}
	if _, ok := r.Get("missing"); ok {
		t.Fatal("Get should miss on unknown name")
	}
	if _, err := m.Classifier.ClassifyString("abab"); err != nil {
		t.Fatalf("loaded model should classify strings: %v", err)
	}
}

func TestOpenSkipsCorruptBundle(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "good", makeClassifier(t, "abab"))
	os.WriteFile(filepath.Join(dir, "bad"+Ext), []byte("not a bundle at all"), 0o644)

	r, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("Open should survive one corrupt bundle: %v", err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if _, ok := rep.Failed["bad"]; !ok {
		t.Fatalf("report should name the corrupt bundle: %+v", rep)
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open should fail on a missing directory")
	}
}

func TestReloadKeepsChangesAndRemoves(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "stable", makeClassifier(t, "abab"))
	writeBundle(t, dir, "hot", makeClassifier(t, "cdcd"))
	r, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stable0, _ := r.Get("stable")
	hot0, _ := r.Get("hot")

	// Rewrite one bundle, add one, remove none.
	writeBundle(t, dir, "hot", makeClassifier(t, "aabb", "bbaa"))
	bump(t, dir, "hot", 2*time.Second)
	writeBundle(t, dir, "fresh", makeClassifier(t, "dddd"))
	rep, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	wantLoaded := map[string]bool{"hot": true, "fresh": true}
	for _, n := range rep.Loaded {
		delete(wantLoaded, n)
	}
	if len(wantLoaded) != 0 || len(rep.Kept) != 1 || rep.Kept[0] != "stable" {
		t.Fatalf("report %+v: want hot+fresh loaded, stable kept", rep)
	}
	if stable1, _ := r.Get("stable"); stable1 != stable0 {
		t.Fatal("unchanged bundle should keep its loaded *Model")
	}
	if hot1, _ := r.Get("hot"); hot1 == hot0 {
		t.Fatal("changed bundle should reload to a new *Model")
	}
	// The old model object must remain usable for in-flight holders.
	if _, err := hot0.Classifier.ClassifyString("cd"); err != nil {
		t.Fatalf("replaced model object broke: %v", err)
	}

	// Removal.
	os.Remove(filepath.Join(dir, "fresh"+Ext))
	rep, err = r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != "fresh" {
		t.Fatalf("report %+v: want fresh removed", rep)
	}
	if _, ok := r.Get("fresh"); ok {
		t.Fatal("removed bundle still resolvable")
	}
}

func TestReloadKeepsPreviousOnCorruptRewrite(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "m", makeClassifier(t, "abab"))
	r, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := r.Get("m")

	writeGarbage(t, dir, "m")
	bump(t, dir, "m", 2*time.Second)
	rep, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Failed["m"]; !ok {
		t.Fatalf("report should record the failed load: %+v", rep)
	}
	after, ok := r.Get("m")
	if !ok || after != before {
		t.Fatal("corrupt rewrite must keep the previous good version in service")
	}
}

func TestInstrumentCountsReloads(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "stable", makeClassifier(t, "abab"))
	writeBundle(t, dir, "hot", makeClassifier(t, "cdcd"))
	r, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.Instrument(reg)
	if got := reg.Gauge("cluseq_registry_models").Value(); got != 2 {
		t.Fatalf("models gauge at Instrument = %v, want 2", got)
	}

	// One pass covering every outcome: hot rewritten (loaded), stable
	// unchanged (kept), a corrupt newcomer (load failure), and then a
	// second pass after deleting hot (removed).
	writeBundle(t, dir, "hot", makeClassifier(t, "aabb"))
	bump(t, dir, "hot", 2*time.Second)
	os.WriteFile(filepath.Join(dir, "bad"+Ext), []byte("garbage"), 0o644)
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "hot"+Ext))
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]int64{
		"cluseq_registry_reloads_total":        2,
		"cluseq_registry_reload_errors_total":  0,
		"cluseq_registry_models_loaded_total":  1, // hot, pass 1
		"cluseq_registry_models_kept_total":    2, // stable, once per pass
		"cluseq_registry_load_failures_total":  2, // bad fails both passes
		"cluseq_registry_models_removed_total": 1, // hot, pass 2
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("cluseq_registry_models").Value(); got != 1 {
		t.Fatalf("models gauge after removal = %v, want 1 (stable)", got)
	}
}

func TestInstrumentCountsScanError(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "m", makeClassifier(t, "abab"))
	r, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.Instrument(reg)
	os.RemoveAll(dir)
	if _, err := r.Reload(); err == nil {
		t.Fatal("Reload over a vanished directory should fail")
	}
	if got := reg.Counter("cluseq_registry_reload_errors_total").Value(); got != 1 {
		t.Fatalf("reload_errors_total = %d, want 1", got)
	}
	if got := reg.Counter("cluseq_registry_reloads_total").Value(); got != 0 {
		t.Fatalf("reloads_total = %d, want 0 (the pass failed)", got)
	}
}

func TestConcurrentGetAndReload(t *testing.T) {
	dir := t.TempDir()
	a := makeClassifier(t, "abababab", "abab")
	b := makeClassifier(t, "cdcdcdcd", "cdcd")
	writeBundle(t, dir, "m", a)
	r, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m, ok := r.Get("m")
				if !ok {
					t.Error("model vanished during reload")
					return
				}
				if _, err := m.Classifier.ClassifyString("abcd"); err != nil {
					t.Errorf("classify failed mid-reload: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		clf := a
		if i%2 == 0 {
			clf = b
		}
		writeBundle(t, dir, "m", clf)
		bump(t, dir, "m", time.Duration(i+1)*time.Second)
		if _, err := r.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if gen := r.Generation(); gen < 21 {
		t.Fatalf("generation %d, want ≥ 21", gen)
	}
}

func TestPublishInstallsAndSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "file", makeClassifier(t, "abab"))
	r, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	clf := makeClassifier(t, "cdcdcdcd")
	if err := r.Publish("live", clf, 3); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	m, ok := r.Get("live")
	if !ok || !m.Published || m.Version != 3 || m.Classifier != clf {
		t.Fatalf("published model = %+v, ok=%v", m, ok)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}

	// A reload must carry the published model over, untouched.
	rep, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := r.Get("live")
	if !ok || m2 != m {
		t.Fatalf("published model lost or replaced across Reload (report %+v)", rep)
	}

	// Republishing bumps the version atomically.
	clf2 := makeClassifier(t, "cdcd")
	if err := r.Publish("live", clf2, 4); err != nil {
		t.Fatal(err)
	}
	if m3, _ := r.Get("live"); m3.Version != 4 || m3.Classifier != clf2 {
		t.Fatalf("republish did not install: %+v", m3)
	}
}

func TestPublishNameConflicts(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "file", makeClassifier(t, "abab"))
	r, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A published model may not steal a file-backed name…
	if err := r.Publish("file", makeClassifier(t, "cdcd"), 1); err == nil {
		t.Fatal("Publish over a file-backed model succeeded")
	}
	// …and a bundle file may not steal a published name: the file is
	// reported failed, the live model stays.
	if err := r.Publish("live", makeClassifier(t, "cdcd"), 1); err != nil {
		t.Fatal(err)
	}
	writeBundle(t, dir, "live", makeClassifier(t, "abab"))
	rep, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if _, clash := rep.Failed["live"]; !clash {
		t.Fatalf("same-named bundle not reported failed: %+v", rep)
	}
	if m, ok := r.Get("live"); !ok || !m.Published {
		t.Fatal("published model displaced by bundle file")
	}
	if err := r.Publish("", makeClassifier(t, "abab"), 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Publish("x", nil, 1); err == nil {
		t.Fatal("nil classifier accepted")
	}
}

// TestMmapServesV3 pins zero-copy serving: a v3 bundle loaded with mmap
// enabled reports its mapped size, classifies correctly, and the
// mapped-bytes gauge tracks the snapshot total. v2 bundles in the same
// directory load through the copying fallback.
func TestMmapServesV3(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "v3", makeClassifier(t, "abababab", "abab"))
	writeBundleV2(t, dir, "v2")

	r, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 2 {
		t.Fatalf("loaded %v, want both bundles", rep)
	}
	m3, _ := r.Get("v3")
	m2, _ := r.Get("v2")
	if m2.MappedBytes != 0 {
		t.Fatalf("v2 bundle reports MappedBytes %d, want 0 (copying fallback)", m2.MappedBytes)
	}
	fi, err := os.Stat(filepath.Join(dir, "v3"+Ext))
	if err != nil {
		t.Fatal(err)
	}
	if m3.MappedBytes != 0 && m3.MappedBytes != fi.Size() {
		t.Fatalf("v3 MappedBytes %d, want file size %d", m3.MappedBytes, fi.Size())
	}
	for _, m := range []*Model{m2, m3} {
		if _, err := m.Classifier.ClassifyString("abcd"); err != nil {
			t.Fatalf("%s: classify: %v", m.Name, err)
		}
	}
	reg := obs.NewRegistry()
	r.Instrument(reg)
	if got := reg.Gauge("cluseq_registry_mapped_bytes").Value(); got != float64(m3.MappedBytes) {
		t.Fatalf("mapped_bytes gauge %v, want %d", got, m3.MappedBytes)
	}
}

// TestMmapDisabled: OpenWith(Options{}) must never map, even for v3.
func TestMmapDisabled(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "m", makeClassifier(t, "abab"))
	r, _, err := OpenWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := r.Get("m")
	if !ok || m.MappedBytes != 0 {
		t.Fatalf("model %+v, ok=%v: want loaded without a mapping", m, ok)
	}
	if _, err := m.Classifier.ClassifyString("abab"); err != nil {
		t.Fatal(err)
	}
}

// TestMmapUnmapAfterSwap pins the unmap-after-last-reader contract
// across a hot reload: after a v3 bundle is replaced and the last
// holder of the old model lets go, garbage collection alone releases
// the old mapping — and the old model stays fully usable until then.
func TestMmapUnmapAfterSwap(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "m", makeClassifier(t, "abababab", "abab"))
	base := mmapfile.MappedBytes()
	r, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old, _ := r.Get("m")
	if old.MappedBytes == 0 {
		t.Skip("no OS mapping on this platform; unmap path is untestable")
	}

	writeBundle(t, dir, "m", makeClassifier(t, "cdcdcdcd", "cdcd"))
	bump(t, dir, "m", 2*time.Second)
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	fresh, _ := r.Get("m")
	if fresh == old {
		t.Fatal("reload did not swap the model")
	}
	// The displaced model must keep serving its (still-mapped) bytes for
	// in-flight readers.
	if _, err := old.Classifier.ClassifyString("abab"); err != nil {
		t.Fatalf("old model broke while still referenced: %v", err)
	}

	old = nil // last reader gone
	target := base + fresh.MappedBytes
	deadline := time.Now().Add(5 * time.Second)
	for mmapfile.MappedBytes() > target {
		if time.Now().After(deadline) {
			t.Fatalf("old mapping never released: MappedBytes %d, want ≤ %d",
				mmapfile.MappedBytes(), target)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if _, err := fresh.Classifier.ClassifyString("cdcd"); err != nil {
		t.Fatalf("live model broke after old mapping released: %v", err)
	}
}

// TestMmapCorruptV3Rejected: a corrupt v3 rewrite must keep the
// previous mapped version in service, same as the copying path.
func TestMmapCorruptV3Rejected(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "m", makeClassifier(t, "abab"))
	r, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := r.Get("m")
	writeGarbage(t, dir, "m")
	bump(t, dir, "m", 2*time.Second)
	rep, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Failed["m"]; !ok {
		t.Fatalf("report should record the failed load: %+v", rep)
	}
	if after, ok := r.Get("m"); !ok || after != before {
		t.Fatal("corrupt rewrite must keep the previous good version in service")
	}
}

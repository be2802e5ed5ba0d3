package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// Classifier assigns new sequences to the clusters of a finished run. It
// wraps the kept cluster trees, the background distribution, and the
// final similarity threshold, so the membership rule applied to new data
// is exactly the one the clustering converged to.
//
// A Classifier is immutable after construction: Classify and every
// accessor may be called from any number of goroutines concurrently
// (the cluster trees are only read, which pst.Tree permits — see the
// concurrency note on pst.Tree). The serving daemon relies on this to
// share one Classifier across all in-flight requests.
type Classifier struct {
	// trees holds the live cluster trees — nil for classifiers loaded
	// from a v3 bundle without embedded trees, which serve entirely from
	// the snapshot arenas below.
	trees []*pst.Tree
	// snaps holds one compiled scoring snapshot per cluster (see
	// pst.Snapshot); every constructor and loader fills it. Classifier
	// trees never mutate, so the snapshots compiled at construction stay
	// valid for the classifier's lifetime and Classify scans flat arrays
	// with no locks and no math.Log. For v3-loaded classifiers the
	// snapshots are standalone views into the bundle bytes (zero-copy
	// when those bytes are mmap'd).
	snaps      []*pst.Snapshot
	background []float64
	logT       float64
	raw        bool
	// alphabet is the training database's rune↔symbol mapping, carried so
	// that raw strings can be classified without the original database.
	// Nil for bundles saved before format v2; such classifiers accept
	// only pre-encoded symbol slices.
	alphabet *seq.Alphabet
	// published is the publisher snapshot version a v3 bundle was saved
	// at; zero otherwise.
	published uint64
	// treeInfos and maxDepth carry the per-cluster stats of a treeless
	// v3 bundle, so Info answers without the trees.
	treeInfos []TreeInfo
	maxDepth  int
	// backing pins whatever owns the bytes the snapshots view — the
	// mmap'd file region — for the classifier's lifetime, so the
	// mapping is unmapped only after the last reader drops.
	backing any
}

// NewClassifier builds a classifier from a clustering result. The result
// must come from a run with Config.KeepTrees set, and db must be the
// database that was clustered (its symbol frequencies are the similarity
// background and its alphabet encodes future inputs).
func NewClassifier(db *seq.Database, res *Result, cfg Config) (*Classifier, error) {
	if db == nil || res == nil {
		return nil, fmt.Errorf("core: NewClassifier needs a database and a result")
	}
	if len(res.Clusters) == 0 {
		return nil, fmt.Errorf("core: result has no clusters")
	}
	c := &Classifier{
		background: db.SymbolFrequencies(),
		logT:       math.Log(res.FinalThreshold),
		raw:        cfg.RawSimilarity,
		alphabet:   db.Alphabet,
	}
	for _, cl := range res.Clusters {
		if cl.Tree == nil {
			return nil, fmt.Errorf("core: cluster %d carries no tree; run Cluster with Config.KeepTrees", cl.ID)
		}
		c.trees = append(c.trees, cl.Tree)
	}
	start := time.Now()
	c.compileSnapshots()
	if cfg.Obs != nil {
		cfg.Obs.Counter("cluseq_classifier_snapshot_compiles_total").Add(int64(len(c.trees)))
		cfg.Obs.Histogram("cluseq_classifier_snapshot_compile_seconds", 0, 1, 200).ObserveSince(start)
	}
	return c, nil
}

// NewClassifierFromParts assembles a classifier directly from cluster
// trees, without a Result. The streaming engine (internal/stream) uses
// it at snapshot-publication time: the trees must be private, immutable
// copies (see pst.Tree.Clone) sharing one alphabet size, background is
// the symbol distribution the similarities were scored against, and
// threshold is the similarity threshold in effect (not log-domain),
// compared against per-symbol normalized similarities. The background
// slice is copied; the trees are not, so the caller must not mutate them
// afterwards.
//
// snaps, when non-nil, holds one already compiled snapshot per tree, so
// the classifier need not compile again; a nil slice or a nil entry
// compiles from the tree. snaps[i] must have been compiled from a tree
// with trees[i]'s content, against background's values. The classifier
// keeps a detached copy (pst.Snapshot.Detached), which shares the
// compiled tables but not the tree they were compiled from.
func NewClassifierFromParts(trees []*pst.Tree, snaps []*pst.Snapshot, alphabet *seq.Alphabet, background []float64, threshold float64) (*Classifier, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("core: classifier needs at least one cluster tree")
	}
	if alphabet == nil {
		return nil, fmt.Errorf("core: classifier needs an alphabet")
	}
	if len(background) != alphabet.Size() {
		return nil, fmt.Errorf("core: background has %d entries, alphabet %d symbols", len(background), alphabet.Size())
	}
	if !(threshold > 0) || math.IsInf(threshold, 1) {
		return nil, fmt.Errorf("core: threshold %v outside (0, +inf)", threshold)
	}
	if snaps != nil && len(snaps) != len(trees) {
		return nil, fmt.Errorf("core: %d snapshots for %d cluster trees", len(snaps), len(trees))
	}
	for i, tree := range trees {
		if tree == nil {
			return nil, fmt.Errorf("core: cluster tree %d is nil", i)
		}
		if got := tree.Config().AlphabetSize; got != alphabet.Size() {
			return nil, fmt.Errorf("core: cluster tree %d built over %d symbols, alphabet has %d", i, got, alphabet.Size())
		}
		if snaps == nil || snaps[i] == nil {
			continue
		}
		if !slices.Equal(snaps[i].Background(), background) {
			return nil, fmt.Errorf("core: snapshot %d was compiled against another background", i)
		}
	}
	c := &Classifier{
		trees:      trees,
		snaps:      make([]*pst.Snapshot, len(trees)),
		background: append([]float64(nil), background...),
		logT:       math.Log(threshold),
		alphabet:   alphabet,
	}
	for i, tree := range trees {
		if snaps != nil && snaps[i] != nil {
			c.snaps[i] = snaps[i].Detached()
		} else {
			c.snaps[i] = tree.CompileSnapshot(c.background).Detached()
		}
	}
	return c, nil
}

// compileSnapshots freezes every tree into its scoring snapshot; called
// once per constructor, before the classifier is published to callers.
// A classifier never changes its background, so it keeps each snapshot
// Detached, without the ln P̂ rows only a refold reads.
func (c *Classifier) compileSnapshots() {
	c.snaps = make([]*pst.Snapshot, len(c.trees))
	for i, tree := range c.trees {
		c.snaps[i] = tree.CompileSnapshot(c.background).Detached()
	}
}

// Assignment is one classification outcome.
type Assignment struct {
	// Cluster is the index (into Result.Clusters) of the best cluster, or
	// −1 when the sequence clears no cluster's threshold (an outlier).
	Cluster int
	// Similarity is the per-symbol normalized similarity to that cluster
	// (or to the best-scoring cluster when Cluster is −1).
	Similarity float64
	// Memberships lists every cluster whose threshold the sequence
	// clears, mirroring CLUSEQ's possibly-overlapping membership.
	Memberships []int
}

// Classify scores one sequence against every cluster.
func (c *Classifier) Classify(symbols []seq.Symbol) Assignment {
	out := Assignment{Cluster: -1}
	if len(symbols) == 0 {
		out.Similarity = 0
		return out
	}
	bestIdx, bestNorm := -1, math.Inf(-1)
	for i, snap := range c.snaps {
		norm := snap.Similarity(symbols).LogSim
		if !c.raw {
			norm /= float64(len(symbols))
		}
		if norm >= c.logT {
			out.Memberships = append(out.Memberships, i)
		}
		if norm > bestNorm {
			bestNorm = norm
			bestIdx = i
		}
	}
	if bestIdx >= 0 && bestNorm >= c.logT {
		out.Cluster = bestIdx
	}
	out.Similarity = math.Exp(bestNorm)
	return out
}

// ClassifyString encodes raw under the classifier's alphabet and
// classifies it. It fails when the bundle carries no alphabet (format v1)
// or when raw contains a rune outside the training alphabet.
func (c *Classifier) ClassifyString(raw string) (Assignment, error) {
	if c.alphabet == nil {
		return Assignment{}, fmt.Errorf("core: classifier bundle carries no alphabet (saved by an older version); classify pre-encoded symbols instead")
	}
	syms, err := c.alphabet.Encode(raw)
	if err != nil {
		return Assignment{}, err
	}
	return c.Classify(syms), nil
}

// NumClusters returns the number of clusters the classifier scores
// against.
func (c *Classifier) NumClusters() int { return len(c.snaps) }

// Alphabet returns the training alphabet, or nil for bundles saved
// before format v2.
func (c *Classifier) Alphabet() *seq.Alphabet { return c.alphabet }

// Threshold returns the per-symbol normalized similarity threshold the
// clustering converged to (Result.FinalThreshold).
func (c *Classifier) Threshold() float64 { return math.Exp(c.logT) }

// RawSimilarity reports whether the threshold is compared against raw
// (un-normalized) similarities.
func (c *Classifier) RawSimilarity() bool { return c.raw }

// ModelInfo is a read-only summary of a classifier's parameters, shaped
// for the serving daemon's model listing.
type ModelInfo struct {
	Clusters      int     `json:"clusters"`
	AlphabetSize  int     `json:"alphabet_size"`
	Alphabet      string  `json:"alphabet,omitempty"`
	Threshold     float64 `json:"threshold"`
	RawSimilarity bool    `json:"raw_similarity,omitempty"`
	MaxDepth      int     `json:"max_depth"`
	TotalNodes    int     `json:"total_nodes"`
	// Trees summarizes each cluster's suffix tree in cluster order.
	Trees []TreeInfo `json:"trees,omitempty"`
}

// TreeInfo summarizes one cluster tree.
type TreeInfo struct {
	Nodes            int   `json:"nodes"`
	SignificantNodes int   `json:"significant_nodes"`
	Depth            int   `json:"depth"`
	TotalSymbols     int64 `json:"total_symbols"`
}

// Info summarizes the classifier's parameters and per-cluster trees. It
// walks every tree, so the cost is proportional to total model size;
// for treeless (v3-loaded) classifiers it answers from the bundle's
// stored per-cluster stats instead.
func (c *Classifier) Info() ModelInfo {
	info := ModelInfo{
		Clusters:      c.NumClusters(),
		AlphabetSize:  len(c.background),
		Threshold:     c.Threshold(),
		RawSimilarity: c.raw,
	}
	if c.alphabet != nil {
		info.Alphabet = c.alphabet.String()
	}
	if len(c.trees) == 0 && len(c.treeInfos) > 0 {
		info.MaxDepth = c.maxDepth
		info.Trees = append([]TreeInfo(nil), c.treeInfos...)
		for _, ti := range c.treeInfos {
			info.TotalNodes += ti.Nodes
		}
		return info
	}
	for _, tree := range c.trees {
		st := tree.Stats()
		info.TotalNodes += st.Nodes
		if d := tree.Config().MaxDepth; d > info.MaxDepth {
			info.MaxDepth = d
		}
		info.Trees = append(info.Trees, TreeInfo{
			Nodes:            st.Nodes,
			SignificantNodes: st.SignificantNodes,
			Depth:            st.MaxDepth,
			TotalSymbols:     st.TotalSymbols,
		})
	}
	return info
}

// Legacy bundle format magics, accepted by LoadClassifier only: v2
// carries the training alphabet between the header and the background
// distribution, v1 does not. SaveBundle writes v3 (see bundle.go).
var (
	classifierMagicV1 = []byte("CLUSEQCLFv1\n")
	classifierMagicV2 = []byte("CLUSEQCLFv2\n")
)

// maxAlphabetBytes bounds the alphabet section: MaxAlphabetSize runes of
// at most 4 UTF-8 bytes each.
const maxAlphabetBytes = 4 * seqMaxAlphabet

// LoadClassifier reads a model bundle: format v3 as SaveBundle writes
// it (routed through LoadClassifierBytes on an in-memory copy — callers
// that want zero-copy should mmap and call LoadClassifierBytes
// directly), and the legacy v2 and v1 (no alphabet section) formats of
// earlier versions, converted on load. Corrupt or truncated bundles
// fail with an error naming the offending section; no error causes an
// allocation proportional to a corrupt size field.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(classifierMagicV2))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("core: reading classifier magic: %w", err)
	}
	var hasAlphabet bool
	switch {
	case bytes.Equal(got, classifierMagicV3):
		rest, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading v3 bundle: %w", err)
		}
		return LoadClassifierBytes(append(got, rest...), nil)
	case bytes.Equal(got, classifierMagicV2):
		hasAlphabet = true
	case bytes.Equal(got, classifierMagicV1):
		hasAlphabet = false
	default:
		return nil, fmt.Errorf("core: bad classifier magic %q", got)
	}
	var (
		nTrees, nBg int64
		logT        float64
		raw         byte
	)
	hdrFields := []struct {
		name string
		v    any
	}{{"tree count", &nTrees}, {"alphabet size", &nBg}, {"threshold", &logT}, {"raw flag", &raw}}
	for _, f := range hdrFields {
		if err := binary.Read(br, binary.LittleEndian, f.v); err != nil {
			return nil, fmt.Errorf("core: reading classifier header field %s: %w", f.name, err)
		}
	}
	if nTrees < 1 || nTrees > 1<<20 || nBg < 1 || nBg > seqMaxAlphabet {
		return nil, fmt.Errorf("core: corrupt classifier header (%d trees, %d symbols)", nTrees, nBg)
	}
	c := &Classifier{logT: logT, raw: raw != 0}
	if hasAlphabet {
		var alphaLen int64
		if err := binary.Read(br, binary.LittleEndian, &alphaLen); err != nil {
			return nil, fmt.Errorf("core: reading alphabet length: %w", err)
		}
		if alphaLen < 0 || alphaLen > maxAlphabetBytes {
			return nil, fmt.Errorf("core: corrupt alphabet length %d (max %d bytes)", alphaLen, maxAlphabetBytes)
		}
		if alphaLen > 0 {
			buf := make([]byte, alphaLen)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("core: reading alphabet: %w", err)
			}
			a, err := seq.NewAlphabet(string(buf))
			if err != nil {
				return nil, fmt.Errorf("core: corrupt alphabet section: %w", err)
			}
			// NewAlphabet deduplicates; a corrupt section with repeated
			// runes would silently shift every symbol, so reject it.
			if a.String() != string(buf) {
				return nil, fmt.Errorf("core: corrupt alphabet section: %q has duplicate or non-canonical runes", buf)
			}
			if int64(a.Size()) != nBg {
				return nil, fmt.Errorf("core: alphabet has %d runes but background declares %d symbols", a.Size(), nBg)
			}
			c.alphabet = a
		}
	}
	c.background = make([]float64, nBg)
	for i := range c.background {
		if err := binary.Read(br, binary.LittleEndian, &c.background[i]); err != nil {
			return nil, fmt.Errorf("core: reading background entry %d: %w", i, err)
		}
		// Zero is legitimate: a stream-published background has zero mass
		// on symbols the stream never produced.
		if !(c.background[i] >= 0) || c.background[i] > 1 {
			return nil, fmt.Errorf("core: corrupt background entry %d: %v", i, c.background[i])
		}
	}
	for i := int64(0); i < nTrees; i++ {
		var size int64
		if err := binary.Read(br, binary.LittleEndian, &size); err != nil {
			return nil, fmt.Errorf("core: reading tree %d size: %w", i, err)
		}
		if size <= 0 || size > 1<<34 {
			return nil, fmt.Errorf("core: corrupt tree %d size %d", i, size)
		}
		// Bound the tree's read window instead of materializing a blob:
		// a corrupt size field then costs nothing, and a truncated stream
		// fails inside pst.Load with the section named.
		lr := &io.LimitedReader{R: br, N: size}
		tree, err := pst.Load(lr)
		if err != nil {
			return nil, fmt.Errorf("core: loading tree %d: %w", i, err)
		}
		// pst.Load buffers its reader, so advance past whatever of the
		// declared window its buffering left unread.
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return nil, fmt.Errorf("core: skipping tree %d padding: %w", i, err)
		}
		if tree.Config().AlphabetSize != int(nBg) {
			return nil, fmt.Errorf("core: tree %d alphabet %d != background %d", i, tree.Config().AlphabetSize, nBg)
		}
		c.trees = append(c.trees, tree)
	}
	c.compileSnapshots()
	return c, nil
}

const seqMaxAlphabet = seq.MaxAlphabetSize

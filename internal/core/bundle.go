package core

// Bundle format v3: a sectioned, checksummed container whose snapshot
// payloads are the pst arena layout verbatim, so loading is mmap +
// pointer arithmetic instead of parse + rebuild (DESIGN.md §14).
//
//	magic "CLUSEQCLFv3\n" (12 bytes)
//	fixed header (64 bytes total, little-endian):
//	  [12:16) flags (bit 0: raw similarity)
//	  [16:20) cluster count
//	  [20:24) section count
//	  [24:32) section table offset (currently always 64)
//	  [32:40) file length
//	  [40:48) publisher snapshot version (0 for batch-trained bundles)
//	  [48:56) log similarity threshold (float64 bits)
//	  [56:60) reserved, zero
//	  [60:64) CRC-32C of bytes [0:60)
//	section table: sectionCount entries of 32 bytes each —
//	  kind u32, index u32, offset u64, length u64,
//	  CRC-32C of the section bytes u32, reserved u32
//	sections: each starting on a 64-byte-aligned offset, in table
//	  order, non-overlapping and monotonically increasing.
//
// Section kinds:
//
//	1 alphabet    UTF-8 training alphabet (length 0: none — v1 heritage)
//	2 background  n float64, the scoring background distribution
//	3 modelinfo   per-cluster tree stats (24 bytes each: nodes u32,
//	              significant u32, depth u32, configured max depth u32,
//	              total symbols u64) so Info works without trees
//	4 snapshot    one pst snapshot arena; index = cluster
//	5 tree        one serialized pst.Tree (PSTv1); index = cluster —
//	              present for all clusters when saved WithTrees, and in
//	              older bundles beside each shrinkage cluster's legacy
//	              delegate arena, for the loader to compile it from
//
// Every load-path validation failure names the section (or header
// field) at fault and happens before any allocation proportional to a
// declared size. SaveBundle writes v3 only; legacy v1/v2 bundles remain
// loadable through LoadClassifier's conversion path.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

var classifierMagicV3 = []byte("CLUSEQCLFv3\n")

const (
	bundleHeaderLen = 64
	bundleEntryLen  = 32
	bundleAlign     = 64

	bundleFlagRaw = 1 << 0

	bundleSecAlphabet   = 1
	bundleSecBackground = 2
	bundleSecModelInfo  = 3
	bundleSecSnapshot   = 4
	bundleSecTree       = 5

	bundleInfoEntryLen = 24
	maxBundleClusters  = 1 << 20 // same cap as the v2 loader
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IsBundleV3 reports whether data begins with the v3 bundle magic —
// the cheap sniff the registry uses to route between the zero-copy
// loader and the v1/v2 conversion path.
func IsBundleV3(data []byte) bool { return bytes.HasPrefix(data, classifierMagicV3) }

// BundleOptions configures SaveBundle.
type BundleOptions struct {
	// WithTrees embeds every cluster's serialized tree alongside its
	// snapshot arena. Costs size; required when the bundle must rebuild
	// live trees (the streaming engine's restart-resume path).
	WithTrees bool
	// PublishedVersion stamps the publisher's monotonically increasing
	// snapshot version into the header, so a resumed stream engine
	// continues the version sequence instead of restarting it.
	PublishedVersion uint64
}

// SaveBundle writes the classifier in bundle format v3, the only
// format this package writes. The output is deterministic for a given
// classifier and options. WithTrees requires live trees (a v3 bundle
// loaded without trees cannot re-save WithTrees).
func (c *Classifier) SaveBundle(w io.Writer, opts BundleOptions) error {
	n := c.NumClusters()
	type section struct {
		kind, index uint32
		data        []byte
	}
	var alphaBytes []byte
	if c.alphabet != nil {
		alphaBytes = []byte(c.alphabet.String())
	}
	bg := make([]byte, 8*len(c.background))
	for i, v := range c.background {
		binary.LittleEndian.PutUint64(bg[8*i:], math.Float64bits(v))
	}
	secs := []section{
		{bundleSecAlphabet, 0, alphaBytes},
		{bundleSecBackground, 0, bg},
		{bundleSecModelInfo, 0, c.encodeModelInfo()},
	}
	var tmp bytes.Buffer
	for i := 0; i < n; i++ {
		secs = append(secs, section{bundleSecSnapshot, uint32(i), c.snaps[i].Arena()})
		if opts.WithTrees {
			if i >= len(c.trees) || c.trees[i] == nil {
				return fmt.Errorf("core: cluster %d needs its tree in the bundle but the classifier carries none", i)
			}
			tmp.Reset()
			if err := c.trees[i].Save(&tmp); err != nil {
				return fmt.Errorf("core: serializing cluster %d tree: %w", i, err)
			}
			secs = append(secs, section{bundleSecTree, uint32(i), append([]byte(nil), tmp.Bytes()...)})
		}
	}

	tableLen := int64(len(secs)) * bundleEntryLen
	table := make([]byte, tableLen)
	off := alignUpI64(bundleHeaderLen+tableLen, bundleAlign)
	for i, s := range secs {
		e := table[i*bundleEntryLen:]
		le := binary.LittleEndian
		le.PutUint32(e[0:4], s.kind)
		le.PutUint32(e[4:8], s.index)
		le.PutUint64(e[8:16], uint64(off))
		le.PutUint64(e[16:24], uint64(len(s.data)))
		le.PutUint32(e[24:28], crc32.Checksum(s.data, castagnoli))
		off = alignUpI64(off+int64(len(s.data)), bundleAlign)
	}
	// fileLen ends at the last section's true end, not its alignment.
	last := secs[len(secs)-1]
	lastOff := binary.LittleEndian.Uint64(table[(len(secs)-1)*bundleEntryLen+8:])
	fileLen := lastOff + uint64(len(last.data))

	hdr := make([]byte, bundleHeaderLen)
	copy(hdr, classifierMagicV3)
	le := binary.LittleEndian
	var flags uint32
	if c.raw {
		flags |= bundleFlagRaw
	}
	le.PutUint32(hdr[12:16], flags)
	le.PutUint32(hdr[16:20], uint32(n))
	le.PutUint32(hdr[20:24], uint32(len(secs)))
	le.PutUint64(hdr[24:32], bundleHeaderLen)
	le.PutUint64(hdr[32:40], fileLen)
	le.PutUint64(hdr[40:48], opts.PublishedVersion)
	le.PutUint64(hdr[48:56], math.Float64bits(c.logT))
	le.PutUint32(hdr[60:64], crc32.Checksum(hdr[:60], castagnoli))

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.Write(table); err != nil {
		return err
	}
	written := int64(bundleHeaderLen) + tableLen
	var pad [bundleAlign]byte
	for i, s := range secs {
		secOff := int64(binary.LittleEndian.Uint64(table[i*bundleEntryLen+8:]))
		if _, err := bw.Write(pad[:secOff-written]); err != nil {
			return err
		}
		if _, err := bw.Write(s.data); err != nil {
			return err
		}
		written = secOff + int64(len(s.data))
	}
	return bw.Flush()
}

func (c *Classifier) encodeModelInfo() []byte {
	n := c.NumClusters()
	out := make([]byte, n*bundleInfoEntryLen)
	le := binary.LittleEndian
	for i := 0; i < n; i++ {
		e := out[i*bundleInfoEntryLen:]
		var ti TreeInfo
		var cfgDepth int
		switch {
		case i < len(c.trees) && c.trees[i] != nil:
			st := c.trees[i].Stats()
			ti = TreeInfo{Nodes: st.Nodes, SignificantNodes: st.SignificantNodes, Depth: st.MaxDepth, TotalSymbols: st.TotalSymbols}
			cfgDepth = c.trees[i].Config().MaxDepth
		case i < len(c.treeInfos):
			// Re-saving a treeless bundle: forward the stored stats.
			ti = c.treeInfos[i]
			cfgDepth = c.maxDepth
		}
		le.PutUint32(e[0:4], uint32(ti.Nodes))
		le.PutUint32(e[4:8], uint32(ti.SignificantNodes))
		le.PutUint32(e[8:12], uint32(ti.Depth))
		le.PutUint32(e[12:16], uint32(cfgDepth))
		le.PutUint64(e[16:24], uint64(ti.TotalSymbols))
	}
	return out
}

func alignUpI64(v, a int64) int64 { return (v + a - 1) &^ (a - 1) }

// bundleSection is one parsed and bounds-checked table entry.
type bundleSection struct {
	kind, index uint32
	off, length uint64
	crc         uint32
}

func (s bundleSection) name() string {
	switch s.kind {
	case bundleSecAlphabet:
		return "alphabet"
	case bundleSecBackground:
		return "background"
	case bundleSecModelInfo:
		return "modelinfo"
	case bundleSecSnapshot:
		return fmt.Sprintf("snapshot[%d]", s.index)
	case bundleSecTree:
		return fmt.Sprintf("tree[%d]", s.index)
	}
	return fmt.Sprintf("kind %d", s.kind)
}

// LoadClassifierBytes parses a v3 bundle held in memory — typically an
// mmap'd model file. On little-endian hosts the returned classifier's
// scan tables are zero-copy views into data, which therefore must stay
// valid and immutable for the classifier's lifetime; owner, if
// non-nil, is retained by the classifier and its snapshots to
// guarantee exactly that (pass the mmapfile.Mapping backing data, and
// the pages survive until the garbage collector proves the last
// reader gone).
//
// Corrupt input fails with the offending header field or section
// named, before any allocation proportional to a declared size, and
// every section is checksummed.
func LoadClassifierBytes(data []byte, owner any) (*Classifier, error) {
	if !IsBundleV3(data) {
		return nil, fmt.Errorf("core: not a v3 bundle (magic %q)", data[:min(len(data), 12)])
	}
	if len(data) < bundleHeaderLen {
		return nil, fmt.Errorf("core: v3 header: %d bytes, need %d", len(data), bundleHeaderLen)
	}
	le := binary.LittleEndian
	if got := crc32.Checksum(data[:60], castagnoli); got != le.Uint32(data[60:64]) {
		return nil, fmt.Errorf("core: v3 header checksum %#x does not match stored %#x", got, le.Uint32(data[60:64]))
	}
	flags := le.Uint32(data[12:16])
	nClusters := int64(le.Uint32(data[16:20]))
	secCount := int64(le.Uint32(data[20:24]))
	tableOff := int64(le.Uint64(data[24:32]))
	fileLen := le.Uint64(data[32:40])
	published := le.Uint64(data[40:48])
	logT := math.Float64frombits(le.Uint64(data[48:56]))
	if fileLen != uint64(len(data)) {
		return nil, fmt.Errorf("core: v3 header: declared length %d, have %d bytes", fileLen, len(data))
	}
	if nClusters < 1 || nClusters > maxBundleClusters {
		return nil, fmt.Errorf("core: v3 header: cluster count %d outside [1, %d]", nClusters, maxBundleClusters)
	}
	if secCount < 3 || secCount > 3+2*nClusters {
		return nil, fmt.Errorf("core: v3 header: section count %d outside [3, %d]", secCount, 3+2*nClusters)
	}
	if tableOff != bundleHeaderLen {
		return nil, fmt.Errorf("core: v3 header: section table at %d, expected %d", tableOff, bundleHeaderLen)
	}
	tableEnd := tableOff + secCount*bundleEntryLen
	if tableEnd > int64(len(data)) {
		return nil, fmt.Errorf("core: v3 section table (%d entries) exceeds the file", secCount)
	}

	secs := make([]bundleSection, secCount)
	prevEnd := uint64(tableEnd)
	for i := range secs {
		e := data[tableOff+int64(i)*bundleEntryLen:]
		s := bundleSection{
			kind:   le.Uint32(e[0:4]),
			index:  le.Uint32(e[4:8]),
			off:    le.Uint64(e[8:16]),
			length: le.Uint64(e[16:24]),
			crc:    le.Uint32(e[24:28]),
		}
		if s.off%bundleAlign != 0 {
			return nil, fmt.Errorf("core: v3 section %s: offset %d not %d-aligned", s.name(), s.off, bundleAlign)
		}
		if s.off < prevEnd || s.length > fileLen || s.off > fileLen-s.length {
			return nil, fmt.Errorf("core: v3 section %s: range [%d, %d+%d) overlaps or exceeds the file", s.name(), s.off, s.off, s.length)
		}
		prevEnd = s.off + s.length
		secs[i] = s
	}
	for _, s := range secs {
		body := data[s.off : s.off+s.length]
		if got := crc32.Checksum(body, castagnoli); got != s.crc {
			return nil, fmt.Errorf("core: v3 section %s: checksum %#x does not match table %#x", s.name(), got, s.crc)
		}
	}

	c := &Classifier{
		logT:      logT,
		raw:       flags&bundleFlagRaw != 0,
		published: published,
		backing:   owner,
	}
	body := func(s bundleSection) []byte { return data[s.off : s.off+s.length] }
	snapSecs := make([]*bundleSection, nClusters)
	treeSecs := make([]*bundleSection, nClusters)
	seen := map[uint32]bool{}
	for i := range secs {
		s := &secs[i]
		switch s.kind {
		case bundleSecSnapshot, bundleSecTree:
			if int64(s.index) >= nClusters {
				return nil, fmt.Errorf("core: v3 section %s: index beyond %d clusters", s.name(), nClusters)
			}
			slot := snapSecs
			if s.kind == bundleSecTree {
				slot = treeSecs
			}
			if slot[s.index] != nil {
				return nil, fmt.Errorf("core: v3 section %s: duplicate", s.name())
			}
			slot[s.index] = s
		case bundleSecAlphabet, bundleSecBackground, bundleSecModelInfo:
			if seen[s.kind] {
				return nil, fmt.Errorf("core: v3 section %s: duplicate", s.name())
			}
			seen[s.kind] = true
			switch s.kind {
			case bundleSecAlphabet:
				if s.length > maxAlphabetBytes {
					return nil, fmt.Errorf("core: v3 section alphabet: %d bytes (max %d)", s.length, maxAlphabetBytes)
				}
				if s.length > 0 {
					a, err := seq.NewAlphabet(string(body(*s)))
					if err != nil {
						return nil, fmt.Errorf("core: v3 section alphabet: %w", err)
					}
					if a.String() != string(body(*s)) {
						return nil, fmt.Errorf("core: v3 section alphabet: %q has duplicate or non-canonical runes", body(*s))
					}
					c.alphabet = a
				}
			case bundleSecBackground:
				if s.length == 0 || s.length%8 != 0 || s.length/8 > seqMaxAlphabet {
					return nil, fmt.Errorf("core: v3 section background: %d bytes is not 1..%d float64 entries", s.length, seqMaxAlphabet)
				}
				bg := make([]float64, s.length/8)
				for i := range bg {
					bg[i] = math.Float64frombits(le.Uint64(body(*s)[8*i:]))
					// Zero is legitimate: a stream-published background has
					// zero mass on symbols the stream never produced.
					if !(bg[i] >= 0) || bg[i] > 1 {
						return nil, fmt.Errorf("core: v3 section background: corrupt entry %d: %v", i, bg[i])
					}
				}
				c.background = bg
			case bundleSecModelInfo:
				if int64(s.length) != nClusters*bundleInfoEntryLen {
					return nil, fmt.Errorf("core: v3 section modelinfo: %d bytes for %d clusters (want %d)", s.length, nClusters, nClusters*bundleInfoEntryLen)
				}
				c.treeInfos = make([]TreeInfo, nClusters)
				for i := range c.treeInfos {
					e := body(*s)[i*bundleInfoEntryLen:]
					c.treeInfos[i] = TreeInfo{
						Nodes:            int(le.Uint32(e[0:4])),
						SignificantNodes: int(le.Uint32(e[4:8])),
						Depth:            int(le.Uint32(e[8:12])),
						TotalSymbols:     int64(le.Uint64(e[16:24])),
					}
					if d := int(le.Uint32(e[12:16])); d > c.maxDepth {
						c.maxDepth = d
					}
				}
			}
		default:
			return nil, fmt.Errorf("core: v3 section %s: unknown kind", s.name())
		}
	}
	if c.background == nil {
		return nil, fmt.Errorf("core: v3 bundle is missing its background section")
	}
	if c.alphabet != nil && c.alphabet.Size() != len(c.background) {
		return nil, fmt.Errorf("core: v3 alphabet has %d runes but background has %d entries", c.alphabet.Size(), len(c.background))
	}

	// Clusters: a snapshot arena per cluster, reconstructed zero-copy.
	// WithTrees bundles carry serialized trees; load them. A legacy
	// delegate arena (a shrinkage cluster saved before shrinkage trees
	// compiled per node) carries no tables, so compile it from its tree.
	c.snaps = make([]*pst.Snapshot, nClusters)
	var trees []*pst.Tree
	treeCount := int64(0)
	loadTree := func(i int64) (*pst.Tree, error) {
		s := treeSecs[i]
		if s == nil {
			return nil, nil
		}
		tree, err := pst.Load(bytes.NewReader(body(*s)))
		if err != nil {
			return nil, fmt.Errorf("core: v3 section %s: %w", s.name(), err)
		}
		if tree.Config().AlphabetSize != len(c.background) {
			return nil, fmt.Errorf("core: v3 section %s: alphabet %d != background %d", s.name(), tree.Config().AlphabetSize, len(c.background))
		}
		return tree, nil
	}
	for i := int64(0); i < nClusters; i++ {
		s := snapSecs[i]
		if s == nil {
			return nil, fmt.Errorf("core: v3 bundle is missing section snapshot[%d]", i)
		}
		tree, err := loadTree(i)
		if err != nil {
			return nil, err
		}
		if tree != nil {
			if trees == nil {
				trees = make([]*pst.Tree, nClusters)
			}
			trees[i] = tree
			treeCount++
		}
		snap, err := pst.SnapshotFromArena(body(*s), owner)
		switch {
		case err == nil:
			c.snaps[i] = snap
		case err == pst.ErrArenaDelegates:
			if tree == nil {
				return nil, fmt.Errorf("core: v3 section snapshot[%d] delegates to its tree, but the bundle has no section tree[%d]", i, i)
			}
			c.snaps[i] = tree.CompileSnapshot(c.background).Detached()
		default:
			return nil, fmt.Errorf("core: v3 section snapshot[%d]: %w", i, err)
		}
	}
	// Only adopt the tree slice when it is complete: Classify and the
	// stream-resume path treat c.trees as index-aligned with clusters.
	if treeCount == nClusters {
		c.trees = trees
	}
	return c, nil
}

// PublishedVersion returns the publisher's snapshot version stamped
// into the bundle (zero for batch-trained bundles and classifiers not
// loaded from a v3 bundle).
func (c *Classifier) PublishedVersion() uint64 { return c.published }

// Trees returns the classifier's cluster trees in cluster order, or
// nil when the bundle was loaded without embedded trees (see
// BundleOptions.WithTrees). Callers must not mutate the trees.
func (c *Classifier) Trees() []*pst.Tree { return c.trees }

// Snapshots returns the compiled scoring snapshot of every cluster, in
// cluster order. Snapshots are immutable.
func (c *Classifier) Snapshots() []*pst.Snapshot { return c.snaps }

// Background returns the scoring background distribution. Callers must
// not mutate it.
func (c *Classifier) Background() []float64 { return c.background }

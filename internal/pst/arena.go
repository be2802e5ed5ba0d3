package pst

// Arena layout of compiled scoring snapshots.
//
// A Snapshot's scan state — node transition structure, prediction row
// indices, folded log-ratio tables, background distribution — is
// serialized as one contiguous byte slab (the arena). On a little-endian
// host the loader reconstructs every typed slice as a zero-copy view
// into the slab's bytes, so a loaded snapshot's in-memory form IS its
// serialized form. That identity is what lets the model registry mmap a
// bundle file and serve it without allocating, copying, or touching the
// garbage collector (bundle format v3, DESIGN.md §14). A compiled
// snapshot holds the same tables as ordinary slices, and Arena writes
// them into this layout when a bundle is saved.
//
// Layout (all integers little-endian):
//
//	offset 0: 64-byte fixed header
//	  [0:4)   magic "PSA3"
//	  [4:8)   flags (bit 0 legacy descend, bit 1 legacy delegate; both
//	          read only)
//	  [8:12)  alphabet size n
//	  [12:16) numNodes
//	  [16:20) rows (prediction rows)
//	  [20:24) denseRows
//	  [24:28) csrRows
//	  [28:32) csrEdges
//	  [32:36) childEdges
//	  [36:40) maxDepth
//	  [40:48) arenaLen (total slab length, header included)
//	  [48:52) CRC-32C of arena[64:arenaLen]
//	  [52:64) reserved, zero
//
// followed by the sections below in fixed order, each aligned to a
// 64-byte boundary (cache-line-sized, and generous for every element
// type). A section whose element count is zero occupies no bytes.
// Sections have no per-section length fields: every extent is derived
// from the header counts, so a corrupt header is caught by arithmetic
// against arenaLen before any allocation happens.
//
//	logRatio   rows·n float64   folded ln P̂(s|ctx) − ln p(s) tables
//	background n float64        the distribution the ratios were folded with
//	nodeTrans  numNodes uint32  per-node transition row: bit 31 set = dense
//	                            row id, clear = CSR row id
//	parent     numNodes int32   tree parent (an earlier node), the CSR
//	                            miss fallback chain
//	row        numNodes int32   score row: a real node's own, a virtual
//	                            node's deepest real ancestor's
//	denseTrans denseRows·n i32  full transition rows (fallback resolved)
//	csrStart   csrRows+1 uint32 CSR row extents into csrSym/csrDst
//	csrDst     csrEdges int32   CSR transition targets
//	csrSym     csrEdges uint16  CSR symbols, sorted per row
//	childStart numNodes+1 int32 legacy descend only: child-edge extents
//	childDst   childEdges int32 legacy descend only: child targets
//	childSym   childEdges u16   legacy descend only: child edge symbols
//
// numNodes counts the compiled nodes in breadth-first order — the root
// and the significant nodes, or under shrinkage every tree node — then
// the virtual nodes that close them under suffix links (see Snapshot);
// rows counts the real nodes, each of which has a score row of its own.
//
// Arena writes no flags. Two layouts older writers produced
// still load: flag bit 0 marks a descend arena — a pruned tree compiled
// for root-down descent, with the child sections in place of
// nodeTrans/parent/denseTrans/csr* — which SnapshotFromArena converts
// to the layout above; flag bit 1 alone marks a delegate arena (see
// ErrArenaDelegates).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"

	"cluseq/internal/seq"
)

const (
	arenaMagic     = "PSA3"
	arenaHeaderLen = 64
	arenaAlign     = 64

	arenaFlagDescend  = 1 << 0 // legacy, read only
	arenaFlagDelegate = 1 << 1 // legacy, read only
)

// denseFlag marks a nodeTrans entry as indexing a dense transition row;
// entries without it index a CSR row.
const denseFlag = uint32(1) << 31

// maxArenaLen bounds the slab length a header may declare (64 GiB —
// far beyond any legitimate model); larger values are rejected before
// any arithmetic can overflow or any allocation can run.
const maxArenaLen = int64(1) << 36

// castagnoli is the CRC-32C table shared by arena and bundle checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether typed loads read the arena's
// little-endian bytes natively — the zero-copy precondition.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// arenaZeroCopy gates the unsafe slice views. On big-endian hosts (and
// in the test that pins the fallback) every section is decoded into a
// freshly allocated native slice instead — slower, never wrong.
var arenaZeroCopy = hostLittleEndian

// arenaHeader is the decoded fixed header of one snapshot arena.
type arenaHeader struct {
	flags      uint32
	n          uint32
	numNodes   uint32
	rows       uint32
	denseRows  uint32
	csrRows    uint32
	csrEdges   uint32
	childEdges uint32
	maxDepth   uint32
	arenaLen   uint64
	crc        uint32
}

func (h *arenaHeader) descend() bool { return h.flags&arenaFlagDescend != 0 }

// Section indices, in arena order. Keep in sync with sections().
const (
	secLogRatio = iota
	secBackground
	secNodeTrans
	secParent
	secRow
	secDenseTrans
	secCsrStart
	secCsrDst
	secCsrSym
	secChildStart
	secChildDst
	secChildSym
	numArenaSections
)

// arenaSectionNames names sections in loader errors, so a corrupt
// bundle points at the byte range that broke.
var arenaSectionNames = [numArenaSections]string{
	"logRatio", "background", "nodeTrans", "parent", "row", "denseTrans",
	"csrStart", "csrDst", "csrSym", "childStart", "childDst", "childSym",
}

// sections returns each section's (element size, element count) for
// this header. Counts are int64 so corrupt headers cannot overflow.
func (h *arenaHeader) sections() [numArenaSections][2]int64 {
	var out [numArenaSections][2]int64
	n := int64(h.n)
	num := int64(h.numNodes)
	out[secLogRatio] = [2]int64{8, int64(h.rows) * n}
	out[secRow] = [2]int64{4, num}
	out[secBackground] = [2]int64{8, n}
	if !h.descend() {
		out[secNodeTrans] = [2]int64{4, num}
		out[secParent] = [2]int64{4, num}
		out[secDenseTrans] = [2]int64{4, int64(h.denseRows) * n}
		out[secCsrStart] = [2]int64{4, int64(h.csrRows) + 1}
		out[secCsrDst] = [2]int64{4, int64(h.csrEdges)}
		out[secCsrSym] = [2]int64{2, int64(h.csrEdges)}
	}
	if h.descend() {
		out[secChildStart] = [2]int64{4, num + 1}
		out[secChildDst] = [2]int64{4, int64(h.childEdges)}
		out[secChildSym] = [2]int64{2, int64(h.childEdges)}
	}
	return out
}

// offsets computes every section's byte offset and the total arena
// length. Pure arithmetic over the header — no allocation.
func (h *arenaHeader) offsets() ([numArenaSections]int64, int64) {
	var offs [numArenaSections]int64
	off := int64(arenaHeaderLen)
	for i, s := range h.sections() {
		off = alignUp64(off, arenaAlign)
		offs[i] = off
		off += s[0] * s[1]
	}
	return offs, alignUp64(off, arenaAlign)
}

func alignUp64(v, a int64) int64 { return (v + a - 1) &^ (a - 1) }

// validate rejects implausible headers with section-free arithmetic,
// before offsets() or any allocation runs.
func (h *arenaHeader) validate() error {
	if h.flags&^uint32(arenaFlagDescend) != 0 {
		return fmt.Errorf("pst: arena header: unknown flags %#x", h.flags)
	}
	if h.n == 0 || int64(h.n) > int64(seq.MaxAlphabetSize) {
		return fmt.Errorf("pst: arena header: alphabet size %d outside [1, %d]", h.n, seq.MaxAlphabetSize)
	}
	if int64(h.arenaLen) > maxArenaLen {
		return fmt.Errorf("pst: arena header: length %d exceeds the %d cap", h.arenaLen, maxArenaLen)
	}
	if h.numNodes < 1 || int64(h.numNodes) > maxLoadNodes {
		return fmt.Errorf("pst: arena header: node count %d outside [1, %d]", h.numNodes, maxLoadNodes)
	}
	if h.rows < 1 || h.rows > h.numNodes {
		return fmt.Errorf("pst: arena header: %d prediction rows for %d nodes", h.rows, h.numNodes)
	}
	if h.maxDepth > 1<<30 {
		return fmt.Errorf("pst: arena header: max depth %d", h.maxDepth)
	}
	if h.descend() {
		if h.childEdges != h.numNodes-1 {
			return fmt.Errorf("pst: arena section childSym: %d edges for %d nodes (want %d)", h.childEdges, h.numNodes, h.numNodes-1)
		}
		if h.denseRows != 0 || h.csrRows != 0 || h.csrEdges != 0 {
			return fmt.Errorf("pst: arena header: descend arena declares transition sections")
		}
		return nil
	}
	if h.denseRows+h.csrRows != h.numNodes {
		return fmt.Errorf("pst: arena header: %d dense + %d CSR rows != %d nodes", h.denseRows, h.csrRows, h.numNodes)
	}
	if h.denseRows < 1 {
		return fmt.Errorf("pst: arena section denseTrans: the root row must be dense")
	}
	if h.csrEdges > h.numNodes-1 {
		return fmt.Errorf("pst: arena section csrSym: %d edges exceed %d nodes", h.csrEdges, h.numNodes-1)
	}
	if h.childEdges != 0 {
		return fmt.Errorf("pst: arena header: automaton arena declares child sections")
	}
	return nil
}

func (h *arenaHeader) encode(dst []byte) {
	copy(dst[0:4], arenaMagic)
	le := binary.LittleEndian
	le.PutUint32(dst[4:8], h.flags)
	le.PutUint32(dst[8:12], h.n)
	le.PutUint32(dst[12:16], h.numNodes)
	le.PutUint32(dst[16:20], h.rows)
	le.PutUint32(dst[20:24], h.denseRows)
	le.PutUint32(dst[24:28], h.csrRows)
	le.PutUint32(dst[28:32], h.csrEdges)
	le.PutUint32(dst[32:36], h.childEdges)
	le.PutUint32(dst[36:40], h.maxDepth)
	le.PutUint64(dst[40:48], h.arenaLen)
	le.PutUint32(dst[48:52], h.crc)
	clear(dst[52:arenaHeaderLen])
}

func decodeArenaHeader(b []byte) (arenaHeader, error) {
	var h arenaHeader
	if len(b) < arenaHeaderLen {
		return h, fmt.Errorf("pst: arena header: %d bytes, need %d", len(b), arenaHeaderLen)
	}
	if string(b[0:4]) != arenaMagic {
		return h, fmt.Errorf("pst: arena header: bad magic %q", b[0:4])
	}
	le := binary.LittleEndian
	h.flags = le.Uint32(b[4:8])
	h.n = le.Uint32(b[8:12])
	h.numNodes = le.Uint32(b[12:16])
	h.rows = le.Uint32(b[16:20])
	h.denseRows = le.Uint32(b[20:24])
	h.csrRows = le.Uint32(b[24:28])
	h.csrEdges = le.Uint32(b[28:32])
	h.childEdges = le.Uint32(b[32:36])
	h.maxDepth = le.Uint32(b[36:40])
	h.arenaLen = le.Uint64(b[40:48])
	h.crc = le.Uint32(b[48:52])
	return h, nil
}

// alignedBytes allocates a zeroed slab whose first byte sits on a
// 64-byte boundary, so absolute section offsets inside it carry the
// same alignment the mmap path gets from page-aligned mappings.
func alignedBytes(n int64) []byte {
	buf := make([]byte, n+arenaAlign-1)
	off := int64((arenaAlign - uintptr(unsafe.Pointer(&buf[0]))%arenaAlign) % arenaAlign)
	return buf[off : off+n : off+n]
}

// rawBytes reinterprets a typed slice as its backing bytes (host
// endianness — callers gate on hostLittleEndian).
func rawBytes[T any](src []T) []byte {
	if len(src) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), len(src)*int(unsafe.Sizeof(zero)))
}

// The put* helpers encode a native slice into arena bytes as
// little-endian; on little-endian hosts they are a single copy.

func putU16s[T ~uint16](dst []byte, src []T) {
	if hostLittleEndian {
		copy(dst, rawBytes(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(v))
	}
}

func putU32s[T ~uint32 | ~int32](dst []byte, src []T) {
	if hostLittleEndian {
		copy(dst, rawBytes(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

func putF64s(dst []byte, src []float64) {
	if hostLittleEndian {
		copy(dst, rawBytes(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// The view* helpers expose an arena section as a typed slice: an
// aliasing zero-copy view when arenaZeroCopy holds (little-endian host,
// 64-byte-aligned base), a decoded copy otherwise. They run on the
// serving path — SnapshotFromArena executes under a registry hot swap —
// so they carry the hotpath contract; only the big-endian decode
// fallback, one copy per section per load, is waived.

//cluseq:hotpath
func viewU16s[T ~uint16](b []byte, count int64) []T {
	if count == 0 {
		return nil
	}
	if arenaZeroCopy {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), count)
	}
	out := make([]T, count) //cluseq:allow hotpath: big-endian fallback decodes one copy per section load; the zero-copy branch is the served one
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint16(b[2*i:])) //cluseq:allow hotpath: big-endian fallback only; little-endian hosts never reach this loop
	}
	return out
}

//cluseq:hotpath
func viewU32s[T ~uint32 | ~int32](b []byte, count int64) []T {
	if count == 0 {
		return nil
	}
	if arenaZeroCopy {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), count)
	}
	out := make([]T, count) //cluseq:allow hotpath: big-endian fallback decodes one copy per section load; the zero-copy branch is the served one
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[4*i:])) //cluseq:allow hotpath: big-endian fallback only; little-endian hosts never reach this loop
	}
	return out
}

//cluseq:hotpath
func viewF64s(b []byte, count int64) []float64 {
	if count == 0 {
		return nil
	}
	if arenaZeroCopy {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), count)
	}
	out := make([]float64, count) //cluseq:allow hotpath: big-endian fallback decodes one copy per section load; the zero-copy branch is the served one
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) //cluseq:allow hotpath: big-endian fallback only; little-endian hosts never reach this loop
	}
	return out
}

// buildArena packs the sections fill writes into one checksummed slab
// under header h.
func buildArena(h arenaHeader, fill func(offs [numArenaSections]int64, arena []byte)) []byte {
	offs, total := h.offsets()
	h.arenaLen = uint64(total)
	arena := alignedBytes(total)
	fill(offs, arena)
	h.crc = crc32.Checksum(arena[arenaHeaderLen:], castagnoli)
	h.encode(arena[:arenaHeaderLen])
	return arena
}

// attach wires the snapshot's typed slices onto the arena according to
// the (already validated) header. Zero-copy on little-endian hosts.
func (s *Snapshot) attach(arena []byte, h *arenaHeader) {
	offs, _ := h.offsets()
	secs := h.sections()
	sec := func(i int) []byte { return arena[offs[i]:] }
	s.arena = arena
	s.n, s.maxDepth = int(h.n), int(h.maxDepth)
	s.logRatio = viewF64s(sec(secLogRatio), secs[secLogRatio][1])
	s.background = viewF64s(sec(secBackground), secs[secBackground][1])
	s.nodeTrans = viewU32s[uint32](sec(secNodeTrans), secs[secNodeTrans][1])
	s.parent = viewU32s[int32](sec(secParent), secs[secParent][1])
	s.row = viewU32s[int32](sec(secRow), secs[secRow][1])
	s.denseTrans = viewU32s[int32](sec(secDenseTrans), secs[secDenseTrans][1])
	s.csrStart = viewU32s[uint32](sec(secCsrStart), secs[secCsrStart][1])
	s.csrDst = viewU32s[int32](sec(secCsrDst), secs[secCsrDst][1])
	s.csrSym = viewU16s[seq.Symbol](sec(secCsrSym), secs[secCsrSym][1])
}

// SnapshotFromArena reconstructs a snapshot from a serialized arena —
// the bytes Arena returned, typically a section of an mmap'd bundle
// file. On little-endian hosts the returned snapshot's tables are
// zero-copy views into data, which therefore must stay immutable (and
// mapped) for the snapshot's lifetime; the loader performs no
// allocation proportional to the declared sizes beyond the validation
// arithmetic. A legacy descend arena is converted instead: the snapshot
// owns fresh automaton tables, those CompileSnapshot builds for the same
// tree, and does not alias data. A legacy delegate arena yields
// ErrArenaDelegates as soon as its header decodes.
//
// owner, if non-nil, is retained for the snapshot's lifetime — pass
// whatever keeps data's bytes valid (the mmap'd file region), so the
// mapping cannot be unmapped while any reader still holds the
// snapshot.
//
// Every validation failure names the header field or section at fault.
// The CRC-32C over the payload rejects silent corruption, and after it
// every index the scan follows is checked against its table, so an
// arena whose checksum was recomputed over corrupt tables is rejected
// too rather than crashing or hanging the scan.
func SnapshotFromArena(data []byte, owner any) (*Snapshot, error) {
	h, err := decodeArenaHeader(data)
	if err != nil {
		return nil, err
	}
	if h.flags == arenaFlagDelegate {
		return nil, ErrArenaDelegates
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	if h.arenaLen != uint64(len(data)) {
		return nil, fmt.Errorf("pst: arena header: declared length %d, have %d bytes", h.arenaLen, len(data))
	}
	_, total := h.offsets()
	if total != int64(len(data)) {
		return nil, fmt.Errorf("pst: arena sections total %d bytes, header declares %d", total, h.arenaLen)
	}
	if got := crc32.Checksum(data[arenaHeaderLen:], castagnoli); got != h.crc {
		return nil, fmt.Errorf("pst: arena payload checksum %#x does not match header %#x", got, h.crc)
	}
	if arenaZeroCopy && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// Zero-copy views need natural alignment for the float64 tables.
		// mmap hands back page-aligned bases and bundle sections are
		// 64-byte aligned, so this only fires for hand-built slices;
		// realign with one copy rather than failing.
		data = append(alignedBytes(0), data...)
	}
	if h.descend() {
		return fromDescendArena(data, &h)
	}
	s := &Snapshot{backing: owner}
	s.attach(data, &h)
	if err := s.checkIndices(&h); err != nil {
		return nil, err
	}
	return s, nil
}

// checkIndices rejects tables that point outside themselves: a
// transition target, parent, score row, row id or symbol out of range,
// a CSR extent out of order, or a parent that does not precede its
// child — the one rule that makes every CSR miss climb end at the dense
// root. The CRC pass has just read every byte, so on an mmap'd bundle
// these loops fault in no new pages.
func (s *Snapshot) checkIndices(h *arenaHeader) error {
	num := h.numNodes
	if s.nodeTrans[0] < denseFlag {
		return fmt.Errorf("pst: arena section nodeTrans: the root row is not dense")
	}
	for i, tr := range s.nodeTrans {
		if tr >= denseFlag && tr-denseFlag >= h.denseRows || tr < denseFlag && tr >= h.csrRows {
			return fmt.Errorf("pst: arena section nodeTrans: node %d selects row %#x, out of range", i, tr)
		}
	}
	for i, p := range s.parent[1:] {
		if uint32(p) > uint32(i) {
			return fmt.Errorf("pst: arena section parent: node %d has parent %d, not an earlier node", i+1, p)
		}
	}
	for i, r := range s.row {
		if uint32(r) >= h.rows {
			return fmt.Errorf("pst: arena section row: node %d scores with row %d of %d", i, r, h.rows)
		}
	}
	for i, d := range s.denseTrans {
		if uint32(d) >= num {
			return fmt.Errorf("pst: arena section denseTrans: entry %d targets node %d of %d", i, d, num)
		}
	}
	for i := range s.csrStart[1:] {
		if s.csrStart[i+1] < s.csrStart[i] {
			return fmt.Errorf("pst: arena section csrStart: row %d ends before it starts", i)
		}
	}
	if last := s.csrStart[h.csrRows]; last != h.csrEdges {
		return fmt.Errorf("pst: arena section csrStart: rows end at edge %d, section csrDst holds %d", last, h.csrEdges)
	}
	for i, d := range s.csrDst {
		if uint32(d) >= num {
			return fmt.Errorf("pst: arena section csrDst: edge %d targets node %d of %d", i, d, num)
		}
	}
	for i, sym := range s.csrSym {
		if uint32(sym) >= h.n {
			return fmt.Errorf("pst: arena section csrSym: edge %d has symbol %d, alphabet %d", i, sym, h.n)
		}
	}
	return nil
}

// fromDescendArena converts a legacy descend arena, written for trees
// pruned out of suffix-link closure before the compiler closed them.
// Its child sections hold the whole breadth-first tree, and its row
// section gives the root and each significant node a score row of its
// own and every other node its parent's. After the same kind of index
// checks the converter keeps the root and the nodes with a row of their
// own, the nodes CompileSnapshot lays out, and compiles them through
// CompileSnapshot's own builder, its closure bounded as for a loaded
// tree, with copies of their score rows and the background: the tables
// CompileSnapshot builds for the same tree. A node with a row of its own
// below one without has no place in that tree, and the arena is refused.
func fromDescendArena(data []byte, h *arenaHeader) (*Snapshot, error) {
	offs, _ := h.offsets()
	secs := h.sections()
	view32 := func(i int) []int32 { return viewU32s[int32](data[offs[i]:], secs[i][1]) }
	num, edges, n := int32(h.numNodes), int32(h.childEdges), int(h.n)
	childStart, childDst, row := view32(secChildStart), view32(secChildDst), view32(secRow)
	childSym := viewU16s[seq.Symbol](data[offs[secChildSym]:], secs[secChildSym][1])
	logRatio := viewF64s(data[offs[secLogRatio]:], secs[secLogRatio][1])
	if childStart[0] != 0 || childStart[num] != edges {
		return nil, fmt.Errorf("pst: arena section childStart: extents run from %d to %d, want 0 to %d", childStart[0], childStart[num], edges)
	}
	for i, r := range row {
		if uint32(r) >= h.rows {
			return nil, fmt.Errorf("pst: arena section row: node %d scores with row %d of %d", i, r, h.rows)
		}
	}
	f := &flatTree{n: n, maxDepth: int(h.maxDepth), parent: []int32{0}, edge: []seq.Symbol{0}}
	ratio := slices.Clone(logRatio[int(row[0])*n:][:n])
	// kept[i] is node i's compiled index, or −1 when it shares its
	// parent's row. Parents precede children, so a node's entry is final
	// before its children are read.
	kept := make([]int32, num)
	for i := int32(0); i < num; i++ {
		lo, hi := childStart[i], childStart[i+1]
		if hi < lo || hi > edges {
			return nil, fmt.Errorf("pst: arena section childStart: node %d spans edges [%d, %d) of %d", i, lo, hi, edges)
		}
		for j := lo; j < hi; j++ {
			if childDst[j] != j+1 || j+1 <= i {
				return nil, fmt.Errorf("pst: arena section childDst: edge %d of node %d targets node %d, not the next node in breadth-first order", j, i, childDst[j])
			}
			if uint32(childSym[j]) >= h.n || j > lo && childSym[j] <= childSym[j-1] {
				return nil, fmt.Errorf("pst: arena section childSym: children of node %d are not ascending symbols below %d", i, h.n)
			}
			c := j + 1
			if row[c] == row[i] {
				kept[c] = -1
				continue
			}
			if kept[i] < 0 {
				return nil, fmt.Errorf("pst: arena section row: node %d has a score row of its own below node %d, which has none", c, i)
			}
			kept[c] = int32(len(f.parent))
			f.parent = append(f.parent, kept[i])
			f.edge = append(f.edge, childSym[j])
			ratio = append(ratio, logRatio[int(row[c])*n:][:n]...)
		}
	}
	// The kept nodes keep their breadth-first order, so each one's
	// children stay one ascending span: childStart[i+1] − childStart[i]
	// counts node i's children.
	f.childStart = make([]int32, len(f.parent)+1)
	for _, p := range f.parent[1:] {
		f.childStart[p+1]++
	}
	for i := range f.parent {
		f.childStart[i+1] += f.childStart[i]
	}
	s, err := f.automaton(closureLimit(len(f.parent), f.maxDepth))
	if err != nil {
		return nil, fmt.Errorf("pst: legacy descend arena: %w", err)
	}
	s.logRatio = ratio
	s.background = slices.Clone(viewF64s(data[offs[secBackground]:], secs[secBackground][1]))
	return s, nil
}

// ErrArenaDelegates reports a legacy delegate arena: until shrinkage
// trees compiled per node, CompileSnapshot wrote for each one a stub
// without tables, and bundles carried the tree beside it. Callers
// deserialize that tree and compile from it instead, so such bundles
// still load.
var ErrArenaDelegates = fmt.Errorf("pst: legacy delegate arena carries no scan tables; recompile from the serialized tree")

// Arena returns the snapshot's slab — the exact bytes a bundle stores
// and SnapshotFromArena accepts. A loaded snapshot returns the bytes it
// views; a compiled one writes a fresh slab from its tables on every
// call, so only a caller that saves it pays for it. Callers must not
// mutate it.
func (s *Snapshot) Arena() []byte {
	if s.arena != nil {
		return s.arena
	}
	return buildArena(s.header(), func(offs [numArenaSections]int64, arena []byte) {
		putF64s(arena[offs[secLogRatio]:], s.logRatio)
		putF64s(arena[offs[secBackground]:], s.background)
		putU32s(arena[offs[secNodeTrans]:], s.nodeTrans)
		putU32s(arena[offs[secParent]:], s.parent)
		putU32s(arena[offs[secRow]:], s.row)
		putU32s(arena[offs[secDenseTrans]:], s.denseTrans)
		putU32s(arena[offs[secCsrStart]:], s.csrStart)
		putU32s(arena[offs[secCsrDst]:], s.csrDst)
		putU16s(arena[offs[secCsrSym]:], s.csrSym)
	})
}

// ArenaBytes returns the length of the snapshot's slab, the bytes its
// scan tables take, from the header arithmetic alone: it writes nothing.
func (s *Snapshot) ArenaBytes() int {
	h := s.header()
	_, total := h.offsets()
	return int(total)
}

// header returns the arena header of s's tables. Every count follows
// from a table's length.
func (s *Snapshot) header() arenaHeader {
	return arenaHeader{
		n:         uint32(s.n),
		numNodes:  uint32(len(s.nodeTrans)),
		rows:      uint32(len(s.logRatio) / s.n),
		denseRows: uint32(len(s.denseTrans) / s.n),
		csrRows:   uint32(len(s.csrStart) - 1),
		csrEdges:  uint32(len(s.csrSym)),
		maxDepth:  uint32(s.maxDepth),
	}
}

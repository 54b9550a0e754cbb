package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/dcindex/dctree/internal/storage"
)

// Fuzz targets for the decoders that consume untrusted on-disk bytes. The
// invariant under test is uniform: arbitrary input yields an error (usually
// ErrCorrupt), never a panic, never an unbounded allocation.

// fuzzNegativeLength is the regression seed for the metaReader.string
// overflow: a uvarint above MaxInt64 whose int conversion used to go
// negative and defeat the bounds check.
func fuzzNegativeLength() []byte {
	return append(bytes.Repeat([]byte{0xff}, 9), 0x01)
}

// goldenWALPayloads returns the logical records of a golden image's log.
func goldenWALPayloads(f *testing.F, name string) [][]byte {
	_, walPrefix := goldenImage(f, name)
	w, err := storage.OpenWAL(walPrefix, storage.WALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	defer w.Close()
	var out [][]byte
	if err := w.Replay(func(_ uint64, payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	return out
}

// goldenNodePayloads returns up to max node payloads of the given layout
// from a golden image's store.
func goldenNodePayloads(f *testing.F, name string, layout uint8, max int) [][]byte {
	storePath, _ := goldenImage(f, name)
	st, err := storage.OpenPagedStore(storePath, smallConfig().BlockSize, 0)
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	tree, err := Open(st)
	if err != nil {
		f.Fatal(err)
	}
	ids := make([]nodeID, 0, len(tree.table))
	for id := range tree.table {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out [][]byte
	for _, id := range ids {
		ref := tree.table[id]
		if ref.layout != layout || len(out) == max {
			continue
		}
		payload, _, err := st.Read(ref.page)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, append([]byte(nil), payload...))
	}
	if len(out) == 0 {
		f.Fatalf("golden image %s holds no layout-%d extents", name, layout)
	}
	return out
}

func FuzzDecodeWALRecord(f *testing.F) {
	// v1 (path-spelled) records exist only in logs older builds wrote; the
	// v1log image holds nothing else.
	v1 := goldenWALPayloads(f, "v1log")
	f.Add(v1[0])
	f.Add(v1[len(v1)-1]) // a delete
	for _, p := range goldenWALPayloads(f, "mixedlog") {
		if p[0] == walOpInsert || p[0] == walOpDelete || p[0] == walOpDictDelta {
			f.Add(p)
		}
	}
	seedTree := newTestTree(f, smallConfig())
	recs := genRecords(f, seedTree.Schema(), rand.New(rand.NewSource(1)), 3)
	f.Add(encodeWALRecordV2(walOpInsert, recs[1]))
	f.Add(encodeWALRecordV2(walOpDelete, recs[2]))
	f.Add([]byte{})
	f.Add([]byte{walOpDictDelta})
	f.Add(append([]byte{walOpInsertV2}, fuzzNegativeLength()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Fresh dictionaries per iteration: v1 decode re-interns paths and
		// dict deltas register values, so state must not leak across inputs.
		schema := testSchema(t)
		if len(data) > 0 && data[0] == walOpDictDelta {
			_ = applyDictDelta(schema, data)
			return
		}
		op, rec, err := decodeWALRecord(schema, data)
		if err != nil {
			return
		}
		if op != walOpInsert && op != walOpDelete {
			t.Fatalf("decoded op %d not canonical", op)
		}
		// Whatever decodes must be a fully valid record for the schema.
		if err := schema.ValidateRecord(rec); err != nil {
			t.Fatalf("decoded record fails validation: %v", err)
		}
	})
}

func FuzzDecodeMeta(f *testing.F) {
	tree := newTestTree(f, smallConfig())
	recs := genRecords(f, tree.Schema(), rand.New(rand.NewSource(2)), 20)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		f.Fatal(err)
	}
	tree.mu.Lock()
	blob, err := tree.encodeMeta(tree.metaSnapshotLocked())
	tree.mu.Unlock()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(metaMagic))
	f.Add(append([]byte(metaMagic), fuzzNegativeLength()...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeMeta(data)
		if err != nil {
			return
		}
		// A blob that decodes must describe a self-consistent tree.
		if tr.schema == nil || tr.schema.Dims() < 1 || tr.schema.Measures() < 1 {
			t.Fatal("decoded tree has no schema")
		}
		if _, ok := tr.table[tr.root]; !ok {
			t.Fatal("decoded tree root has no extent")
		}
	})
}

func FuzzDecodeNode(f *testing.F) {
	for _, p := range goldenNodePayloads(f, "layoutv2", layoutV2, 6) {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{nodeFlagLeaf})
	f.Add(append([]byte{nodeFlagLeaf}, fuzzNegativeLength()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dims, measures := 3, 1
		n, err := decodeNode(1, data, dims, measures)
		if err != nil {
			return
		}
		if n.blocks < 1 || uint64(n.blocks) > math.MaxUint32 {
			t.Fatalf("decoded node has %d blocks", n.blocks)
		}
		// Whatever decodes must survive a re-encode round trip.
		again, err := decodeNode(1, n.appendEncode(nil, dims, measures), dims, measures)
		if err != nil {
			t.Fatalf("re-encoded node does not decode: %v", err)
		}
		if again.leaf != n.leaf || again.blocks != n.blocks || len(again.entries) != len(n.entries) {
			t.Fatal("re-encoded node differs")
		}
	})
}

func FuzzDecodeFlatNode(f *testing.F) {
	// The v1log image's checkpoint wrote flat (v3) extents.
	for _, p := range goldenNodePayloads(f, "v1log", layoutV3, 6) {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{flatMagic})
	f.Add(append([]byte{flatMagic, nodeFlagLeaf}, make([]byte, flatHeaderSize)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dims, measures := 3, 1
		fn, err := makeFlatNode(1, data, dims, measures)
		if err == nil {
			// makeFlatNode vouches for the frame: every fixed-offset accessor
			// must stay in bounds.
			for i := 0; i < fn.count; i++ {
				_ = fn.entryMDS(i)
				for j := 0; j < measures; j++ {
					_ = fn.agg(i, j)
				}
				if fn.leaf {
					_ = fn.record(i)
				} else if fn.child(i) == nilNode {
					t.Fatalf("entry %d: nil child passed validation", i)
				}
			}
		}
		n, err := decodeFlatNode(1, data, dims, measures)
		if err != nil {
			return
		}
		if n.blocks < 1 || len(n.entries) != fn.count {
			t.Fatalf("decoded flat node: blocks %d, %d entries", n.blocks, len(n.entries))
		}
	})
}

// TestDecodeNodeRejectsHugeBlockCount: a layout-v2 payload whose block
// count exceeds the flat layout's u32 field used to decode without error
// into a node with a negative block count.
func TestDecodeNodeRejectsHugeBlockCount(t *testing.T) {
	for _, blocks := range []uint64{math.MaxUint32 + 1, math.MaxUint64} {
		payload := binary.AppendUvarint([]byte{nodeFlagLeaf}, blocks)
		payload = binary.AppendUvarint(payload, 0) // no entries
		if n, err := decodeNode(1, payload, 3, 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("blocks=%d: decodeNode = %+v, %v; want ErrCorrupt", blocks, n, err)
		}
	}
	ok := binary.AppendUvarint([]byte{nodeFlagLeaf}, math.MaxUint32)
	ok = binary.AppendUvarint(ok, 0)
	if n, err := decodeNode(1, ok, 3, 1); err != nil || uint64(n.blocks) != math.MaxUint32 {
		t.Fatalf("blocks=MaxUint32: decodeNode = %+v, %v", n, err)
	}
}

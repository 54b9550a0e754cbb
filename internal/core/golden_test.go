package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/storage"
)

// Golden-image tests: the readers for on-disk formats this build no longer
// writes (WAL record format v1, node layout v2) are pinned by byte images
// an older build produced. testdata/golden/README describes how each image
// was made. Every image is copied into a temp dir before it is opened,
// because recovery truncates torn WAL tails and checkpoints rewrite the
// store.

// goldenImage copies testdata/golden/<name> into a fresh temp dir and
// returns the copy's store path and WAL prefix.
func goldenImage(t testing.TB, name string) (storePath, walPrefix string) {
	t.Helper()
	src := filepath.Join("testdata", "golden", name)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		copyFile(t, filepath.Join(src, e.Name()), filepath.Join(dir, e.Name()))
	}
	return filepath.Join(dir, "store.dc"), filepath.Join(dir, "idx")
}

// goldenOracle reads an image's oracle.tsv — one live record per line:
// the top-down path of each dimension ("R0/N1/C61"), then the measure —
// and interns the records into schema.
func goldenOracle(t testing.TB, schema *cube.Schema, name string) []cube.Record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name, "oracle.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []cube.Record
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		fields := strings.Split(line, "\t")
		if len(fields) != schema.Dims()+1 {
			t.Fatalf("oracle line %q: %d fields", line, len(fields))
		}
		paths := make([][]string, schema.Dims())
		for d := range paths {
			paths[d] = strings.Split(fields[d], "/")
		}
		m, err := strconv.ParseFloat(fields[schema.Dims()], 64)
		if err != nil {
			t.Fatal(err)
		}
		r, err := schema.InternRecord(paths, []float64{m})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	return recs
}

// openDurableImage recovers the durable image at (storePath, walPrefix).
func openDurableImage(t testing.TB, storePath, walPrefix string) *Tree {
	t.Helper()
	st, err := storage.OpenPagedStore(storePath, smallConfig().BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := OpenDurable(st, walPrefix)
	if err != nil {
		st.Close()
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { tree.Close(); st.Close() })
	return tree
}

// walOpCensus counts the logical records of a log by op byte.
func walOpCensus(t testing.TB, walPrefix string) map[byte]int {
	t.Helper()
	w, err := storage.OpenWAL(walPrefix, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ops := map[byte]int{}
	if err := w.Replay(func(_ uint64, payload []byte) error {
		ops[payload[0]]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestCrossVersionV1LogRecovery: a crash image whose meta records WAL
// format 1 and whose log tail holds only path-spelled v1 records recovers
// to seqscan-oracle equality.
func TestCrossVersionV1LogRecovery(t *testing.T) {
	storePath, walPrefix := goldenImage(t, "v1log")
	ops := walOpCensus(t, walPrefix)
	if ops[walOpInsert] != 60 || ops[walOpDelete] != 10 || len(ops) != 2 {
		t.Fatalf("v1log census %v, want 60 v1 inserts + 10 v1 deletes only", ops)
	}
	tree := openDurableImage(t, storePath, walPrefix)
	if n := tree.Metrics().RecoveryReplayedRecords; n != 70 {
		t.Fatalf("replayed %d records, want 70", n)
	}
	verifyAgainstOracle(t, tree, goldenOracle(t, tree.Schema(), "v1log"), 40, 34)
}

// TestV1ImageUpgradesToV2 reopens the format-1 image, keeps writing, crashes
// and recovers again: the reopened tree logs dictionary deltas plus
// interned IDs after the v1 tail it replayed, and the second recovery
// replays the mixed log to oracle equality.
func TestV1ImageUpgradesToV2(t *testing.T) {
	storePath, walPrefix := goldenImage(t, "v1log")
	tree := openDurableImage(t, storePath, walPrefix)
	live := goldenOracle(t, tree.Schema(), "v1log")
	fresh := genRecords(t, tree.Schema(), rand.New(rand.NewSource(404)), 40)
	for _, r := range fresh {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range live[:10] {
		if err := tree.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := tree.Metrics().WALDictDeltas; n == 0 {
		t.Fatal("reopened format-1 tree logged no dictionary deltas")
	}
	want := append(append([]cube.Record{}, live[10:]...), fresh...)
	verifyAgainstOracle(t, tree, want, 20, 41)

	imgStore, imgPrefix := copyCrashImage(t, storePath, walPrefix, filepath.Join(t.TempDir(), "img"))
	ops := walOpCensus(t, imgPrefix)
	if ops[walOpInsert] != 60 || ops[walOpDelete] != 10 ||
		ops[walOpInsertV2] != 40 || ops[walOpDeleteV2] != 10 || ops[walOpDictDelta] == 0 {
		t.Fatalf("upgraded log census %v", ops)
	}
	ctree := openDurableImage(t, imgStore, imgPrefix)
	if n := ctree.Metrics().RecoveryReplayedRecords; n != 120 {
		t.Fatalf("second recovery replayed %d records, want 120", n)
	}
	verifyAgainstOracle(t, ctree, want, 40, 42)
}

// TestMixedFormatLogRecovery: v1 records spliced between v2 records (a
// build upgrade mid-log) replay correctly — decode dispatches per record,
// and the dict delta that follows the v1 records re-registers their values
// idempotently.
func TestMixedFormatLogRecovery(t *testing.T) {
	storePath, walPrefix := goldenImage(t, "mixedlog")
	ops := walOpCensus(t, walPrefix)
	if ops[walOpInsert] != 3 || ops[walOpDelete] != 1 || ops[walOpInsertV2] != 80 ||
		ops[walOpDeleteV2] != 5 || ops[walOpDictDelta] != 2 {
		t.Fatalf("mixedlog census %v", ops)
	}
	tree := openDurableImage(t, storePath, walPrefix)
	if n := tree.Metrics().RecoveryReplayedRecords; n != 89 {
		t.Fatalf("replayed %d records, want 89", n)
	}
	verifyAgainstOracle(t, tree, goldenOracle(t, tree.Schema(), "mixedlog"), 40, 45)
}

// openPagedImage opens a non-durable tree over the store image at path.
func openPagedImage(t testing.TB, path string) (*Tree, *storage.PagedStore) {
	t.Helper()
	st, err := storage.OpenPagedStore(path, smallConfig().BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Open(st)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return tree, st
}

// TestLayoutV2Upgrade: an image checkpointed in the varint node layout
// opens and answers queries through the decode path, its extents upgrade
// to the flat layout as checkpoints rewrite them, and the upgraded image
// reopens oracle-equal.
func TestLayoutV2Upgrade(t *testing.T) {
	storePath, _ := goldenImage(t, "layoutv2")
	tree, st := openPagedImage(t, storePath)
	if rep := tree.VerifyExtents(); !rep.OK() || rep.LayoutV3 != 0 || rep.LayoutV2 != rep.Extents {
		t.Fatalf("v2 image layout census: %+v", rep)
	}
	recs := goldenOracle(t, tree.Schema(), "layoutv2")
	verifyAgainstOracle(t, tree, recs, 40, 43)
	if m := tree.Metrics(); m.FlatNodeReads != 0 {
		t.Fatalf("flat reads served from a v2 image: %+v", m)
	}

	// Delete+reinsert every record dirties each leaf's root path, so the
	// next checkpoint rewrites (and thereby upgrades) those extents.
	for _, r := range recs {
		if err := tree.Delete(r); err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	tree, st = openPagedImage(t, storePath)
	defer st.Close()
	defer tree.Close()
	rep := tree.VerifyExtentsOpts(VerifyOpts{Mmap: true})
	if !rep.OK() {
		t.Fatalf("verify after upgrade: %+v", rep.Errors)
	}
	if rep.LayoutV3 == 0 {
		t.Fatalf("no extents upgraded to the flat layout: %+v", rep)
	}
	// A cold scan walks the upgraded extents as flat views.
	var n int
	if err := tree.Scan(func(cube.Record) bool { n++; return true }); err != nil || n != len(recs) {
		t.Fatalf("cold scan after upgrade: %d records, err %v", n, err)
	}
	if m := tree.Metrics(); m.FlatNodeReads == 0 {
		t.Fatalf("upgraded image served no flat reads: %+v", m)
	}
	verifyAgainstOracle(t, tree, goldenOracle(t, tree.Schema(), "layoutv2"), 40, 44)
}

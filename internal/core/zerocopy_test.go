package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/storage"
)

// newPagedTree builds a tree on a file-backed store and loads n records.
func newPagedTree(t *testing.T, cfg Config, n int) (*Tree, *storage.PagedStore, []cube.Record, *rand.Rand) {
	t.Helper()
	st, err := storage.OpenPagedStore(filepath.Join(t.TempDir(), "index.dc"), cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := testSchema(t)
	tree, err := New(st, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	recs := genRecords(t, s, rng, n)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tree, st, recs, rng
}

// decodeOnly runs fn with the tree's zero-copy viewer detached, so every
// read takes the decode path, and restores the viewer afterwards. It
// fails the test if a flat view served any read meanwhile.
func decodeOnly(t *testing.T, tree *Tree, fn func()) {
	t.Helper()
	viewer := tree.viewer
	tree.viewer = nil
	defer func() { tree.viewer = viewer }()
	before := tree.Metrics().FlatNodeReads
	fn()
	if after := tree.Metrics().FlatNodeReads; after != before {
		t.Fatalf("decode-only reads served %d flat views", after-before)
	}
}

// TestZeroCopyQueryEquivalence: on a flushed layout-v3 image, every query —
// serial, all-measures, and parallel — returns identical answers with the
// flat view path and through decoded nodes, and the flat path actually
// serves reads.
func TestZeroCopyQueryEquivalence(t *testing.T) {
	tree, _, _, rng := newPagedTree(t, smallConfig(), 800)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	s := tree.Schema()
	for i := 0; i < 40; i++ {
		q := randomQuery(rng, s, 0.3)
		reqs := []QueryRequest{
			{Query: q},
			{Query: q, AllMeasures: true},
			{Query: q, Parallel: 4},
		}
		for _, req := range reqs {
			var want QueryResult
			decodeOnly(t, tree, func() {
				tree.EvictCache()
				var err error
				if want, err = tree.Execute(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			})
			tree.EvictCache()
			got, err := tree.Execute(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !aggMatches(got.Agg, want.Agg) {
				t.Fatalf("query %d: flat %+v != decode %+v", i, got.Agg, want.Agg)
			}
			if req.AllMeasures {
				for j := range want.AggVector {
					if !aggMatches(got.AggVector[j], want.AggVector[j]) {
						t.Fatalf("query %d measure %d: flat %+v != decode %+v",
							i, j, got.AggVector[j], want.AggVector[j])
					}
				}
			}
		}
	}
	m := tree.Metrics()
	if m.FlatNodeReads == 0 {
		t.Fatalf("flat path never served a read: %+v", m)
	}
	if m.MmapViews == 0 {
		t.Fatalf("no mapped views served: %+v", m)
	}
}

// TestZeroCopyScanEquivalence: Scan delivers the same record multiset over
// flat views as over decoded nodes.
func TestZeroCopyScanEquivalence(t *testing.T) {
	tree, _, recs, _ := newPagedTree(t, smallConfig(), 500)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	count := func() (n int, sum float64) {
		tree.EvictCache()
		err := tree.Scan(func(r cube.Record) bool {
			n++
			sum += r.Measures[0]
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, sum
	}
	var wantN int
	var wantSum float64
	decodeOnly(t, tree, func() { wantN, wantSum = count() })
	flatBefore := tree.Metrics().FlatNodeReads
	gotN, gotSum := count()
	if tree.Metrics().FlatNodeReads == flatBefore {
		t.Fatal("flat path never served a scan read")
	}
	if gotN != wantN || gotSum != wantSum {
		t.Fatalf("flat scan (%d, %g) != decode scan (%d, %g)", gotN, gotSum, wantN, wantSum)
	}
	if wantN != len(recs) {
		t.Fatalf("scan returned %d records, want %d", wantN, len(recs))
	}
}

// TestSnapshotFlatViewsSurviveChurn: as-of queries over flat views run
// lock-free while writers grow and checkpoint the tree — remaps happen
// mid-descent and checkpoint installs land while extents are mapped and
// pinned. Run with -race this doubles as the memory-safety stress.
func TestSnapshotFlatViewsSurviveChurn(t *testing.T) {
	cfg := smallConfig()
	tree, _, _, rng := newPagedTree(t, cfg, 600)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	s := tree.Schema()

	snap, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantCount := snap.Count()
	q := randomQuery(rng, s, 0.5)
	want, err := tree.Execute(context.Background(), QueryRequest{Query: q, AsOf: snap})
	if err != nil {
		t.Fatal(err)
	}

	extra := genRecords(t, s, rand.New(rand.NewSource(99)), 1500)
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		werr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, r := range extra {
			if stop.Load() {
				return
			}
			if err := tree.Insert(r); err != nil {
				werr = err
				return
			}
			// Checkpoints rewrite extents and grow the file, forcing
			// remaps under the reader's feet.
			if i%150 == 149 {
				if err := tree.Checkpoint(context.Background()); err != nil {
					werr = err
					return
				}
			}
		}
	}()

	for i := 0; i < 60; i++ {
		snap.EvictCache()
		got, err := tree.Execute(context.Background(), QueryRequest{Query: q, AsOf: snap})
		if err != nil {
			t.Errorf("as-of query %d: %v", i, err)
			break
		}
		if !aggMatches(got.Agg, want.Agg) {
			t.Errorf("as-of query %d drifted: %+v, want %+v", i, got.Agg, want.Agg)
			break
		}
		var n int64
		if err := snap.Scan(func(cube.Record) bool { n++; return true }); err != nil {
			t.Errorf("as-of scan %d: %v", i, err)
			break
		}
		if n != wantCount {
			t.Errorf("as-of scan %d saw %d records, want %d", i, n, wantCount)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

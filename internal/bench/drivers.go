package bench

import (
	"context"
	"fmt"
	"time"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/seqscan"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
	"github.com/dcindex/dctree/internal/views"
	"github.com/dcindex/dctree/internal/xtree"
)

// Options parameterizes all experiment drivers.
type Options struct {
	// Sizes are the data-set sizes to sweep (the paper: 100k..300k).
	Sizes []int
	// QueriesPerPoint is the number of random queries averaged per size
	// (the paper: 100).
	QueriesPerPoint int
	// Seed makes the whole experiment deterministic.
	Seed int64
	// Scale fixes the dimension-table cardinalities. The zero value
	// selects tpcd.ScaleFor(n): dimension tables that grow with the data
	// set, like TPC-D's scale factor.
	Scale tpcd.Scale
	// DCConfig / XConfig tune the two trees.
	DCConfig core.Config
	XConfig  xtree.Config
	// Verify cross-checks the three systems' answers on every query
	// (disable for pure timing runs).
	Verify bool
	// SkipAblation drops the ablation table from All (the config sweeps
	// rebuild the DC-tree several times, which dominates large runs).
	SkipAblation bool
}

// DefaultOptions returns laptop-friendly defaults: the paper's shape with
// smaller sizes. Use cmd/dcbench -n 100000,200000,300000 for the full run.
func DefaultOptions() Options {
	return Options{
		Sizes:           []int{10000, 20000, 30000},
		QueriesPerPoint: 100,
		Seed:            1,
		DCConfig:        core.DefaultConfig(),
		XConfig:         xtree.DefaultConfig(),
		Verify:          false,
	}
}

// Validate rejects options the drivers cannot run: no data-set size, a
// size below one record, or fewer than one query per point (the per-query
// averages would divide by zero).
func (opt Options) Validate() error {
	if len(opt.Sizes) == 0 {
		return fmt.Errorf("bench: no data-set size configured")
	}
	for _, n := range opt.Sizes {
		if n < 1 {
			return fmt.Errorf("bench: data-set size %d, want at least 1", n)
		}
	}
	if opt.QueriesPerPoint < 1 {
		return fmt.Errorf("bench: %d queries per point, want at least 1", opt.QueriesPerPoint)
	}
	return nil
}

// systems bundles the three competitors over one generated data set.
type systems struct {
	gen    *tpcd.Gen
	recs   []cube.Record
	points []xtree.Point

	dc   *core.Tree
	xt   *xtree.Tree
	scan *seqscan.Store
	bm   *bitmap.Index

	dcInsert   time.Duration
	xInsert    time.Duration
	scanInsert time.Duration
	bmInsert   time.Duration
}

// buildFlags selects which systems to construct.
type buildFlags struct{ dc, x, scan, bm bool }

// build generates n records and loads the selected systems, timing each
// system's insertion loop separately (generation excluded).
func build(opt Options, n int, which buildFlags) (*systems, error) {
	scale := opt.Scale
	if scale == (tpcd.Scale{}) {
		scale = tpcd.ScaleFor(n)
	}
	gen, err := tpcd.New(opt.Seed, scale)
	if err != nil {
		return nil, err
	}
	s := &systems{gen: gen, recs: gen.Records(n)}
	if which.x {
		s.points = make([]xtree.Point, n)
		for i, r := range s.recs {
			p, err := gen.XPoint(r)
			if err != nil {
				return nil, err
			}
			s.points[i] = p
		}
	}

	if which.dc {
		dc, err := core.New(storage.NewMemStore(opt.DCConfig.BlockSize), gen.Schema(), opt.DCConfig)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, r := range s.recs {
			if err := dc.Insert(r); err != nil {
				return nil, err
			}
		}
		s.dcInsert = time.Since(start)
		s.dc = dc
	}
	if which.x {
		xt, err := xtree.New(gen.XDims(), opt.XConfig)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i, p := range s.points {
			if err := xt.Insert(p, s.recs[i].Measures[0]); err != nil {
				return nil, err
			}
		}
		s.xInsert = time.Since(start)
		s.xt = xt
	}
	if which.scan {
		scan := seqscan.New(gen.Schema())
		start := time.Now()
		for _, r := range s.recs {
			if err := scan.Insert(r); err != nil {
				return nil, err
			}
		}
		s.scanInsert = time.Since(start)
		s.scan = scan
	}
	if which.bm {
		bm := bitmap.NewIndex(gen.Schema())
		start := time.Now()
		for _, r := range s.recs {
			if err := bm.Append(r); err != nil {
				return nil, err
			}
		}
		s.bmInsert = time.Since(start)
		s.bm = bm
	}
	return s, nil
}

// queryWork aggregates per-query averages of both wall-clock and logical
// work. Logical node visits approximate the paper's 1999 cost model, where
// a node visit meant a block read.
type queryWork struct {
	dcSec, xSec, scanSec float64
	dcVisits, xVisits    float64
	dcMaterializedHits   float64
	dcEntries, xEntries  float64
	scanRecords          float64
}

// queryTimes runs the generated query workload against the built systems
// and returns the average seconds per query for each.
func (s *systems) queryTimes(opt Options, selectivity float64) (dcSec, xSec, scanSec float64, err error) {
	w, err := s.queryWork(opt, selectivity)
	if err != nil {
		return 0, 0, 0, err
	}
	return w.dcSec, w.xSec, w.scanSec, nil
}

// queryWork runs the workload and collects both timing and work counters.
func (s *systems) queryWork(opt Options, selectivity float64) (queryWork, error) {
	var w queryWork
	qg := s.gen.Queries(opt.Seed + int64(selectivity*1000) + 77)
	queries := make([]tpcd.Query, opt.QueriesPerPoint)
	for i := range queries {
		var err error
		queries[i], err = qg.Query(selectivity)
		if err != nil {
			return w, err
		}
	}

	if opt.Verify {
		if err := s.verify(queries); err != nil {
			return w, err
		}
	}

	nq := float64(len(queries))
	if s.dc != nil {
		start := time.Now()
		for _, q := range queries {
			res, err := s.dc.Execute(context.Background(),
				core.QueryRequest{Query: q.MDS, CollectStats: true})
			if err != nil {
				return w, err
			}
			w.dcVisits += float64(res.Stats.NodesVisited)
			w.dcEntries += float64(res.Stats.EntriesScanned)
			w.dcMaterializedHits += float64(res.Stats.MaterializedHits)
		}
		w.dcSec = time.Since(start).Seconds() / nq
		w.dcVisits /= nq
		w.dcEntries /= nq
		w.dcMaterializedHits /= nq
	}
	if s.xt != nil {
		start := time.Now()
		for _, q := range queries {
			_, st, err := s.xt.RangeQuery(q.Rect, q.Filter)
			if err != nil {
				return w, err
			}
			w.xVisits += float64(st.NodesVisited)
			w.xEntries += float64(st.EntriesScanned)
		}
		w.xSec = time.Since(start).Seconds() / nq
		w.xVisits /= nq
		w.xEntries /= nq
	}
	if s.scan != nil {
		before := s.scan.RecordsScanned
		start := time.Now()
		for _, q := range queries {
			if _, err := s.scan.RangeAgg(q.MDS, 0); err != nil {
				return w, err
			}
		}
		w.scanSec = time.Since(start).Seconds() / nq
		w.scanRecords = float64(s.scan.RecordsScanned-before) / nq
	}
	return w, nil
}

// verify cross-checks that every built system returns the same aggregate
// for every query — the experiment harness's correctness oracle.
func (s *systems) verify(queries []tpcd.Query) error {
	for i, q := range queries {
		var want cube.Agg
		var haveWant bool
		if s.scan != nil {
			w, err := s.scan.RangeAgg(q.MDS, 0)
			if err != nil {
				return err
			}
			want, haveWant = w, true
		}
		if s.dc != nil {
			res, err := s.dc.Execute(context.Background(), core.QueryRequest{Query: q.MDS})
			if err != nil {
				return err
			}
			got := res.Agg
			if haveWant {
				if got.Count != want.Count || !close6(got.Sum, want.Sum) {
					return fmt.Errorf("bench: query %d: dc %+v != scan %+v", i, got, want)
				}
			} else {
				want, haveWant = got, true
			}
		}
		if s.xt != nil && haveWant {
			got, _, err := s.xt.RangeQuery(q.Rect, q.Filter)
			if err != nil {
				return err
			}
			if got.Count != want.Count || !close6(got.Sum, want.Sum) {
				return fmt.Errorf("bench: query %d: xtree %+v != reference %+v", i, got, want)
			}
		}
		if s.bm != nil && haveWant {
			got, err := s.bm.RangeAgg(q.MDS, 0)
			if err != nil {
				return err
			}
			if got.Count != want.Count || !close6(got.Sum, want.Sum) {
				return fmt.Errorf("bench: query %d: bitmap %+v != reference %+v", i, got, want)
			}
		}
	}
	return nil
}

func close6(a, b float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if b > scale {
		scale = b
	} else if -b > scale {
		scale = -b
	}
	return diff <= 1e-6*scale+1e-9
}

// Fig11aInsert regenerates Figure 11(a): total insertion time of the
// DC-tree vs the X-tree over the data-set sizes.
func Fig11aInsert(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 11(a): Insertion Time (total)",
		Note:    "paper: X-tree inserts significantly faster in total; both grow linearly",
		Columns: []string{"records", "dc_tree_s", "x_tree_s", "dc/x"},
	}
	for _, n := range opt.Sizes {
		s, err := build(opt, n, buildFlags{dc: true, x: true})
		if err != nil {
			return nil, err
		}
		dc, x := s.dcInsert.Seconds(), s.xInsert.Seconds()
		ratio := 0.0
		if x > 0 {
			ratio = dc / x
		}
		t.AddRow(d(n), f3(dc), f3(x), fx(ratio))
	}
	return t, nil
}

// Fig11bInsertPerRecord regenerates Figure 11(b): the DC-tree's insertion
// time per data record, which must stay flat (≈0.025 s on 1999 hardware)
// as the data set grows.
func Fig11bInsertPerRecord(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 11(b): DC-tree Insertion Time per Data Record",
		Note:    "paper: ~0.025 s/record on a 1999 HP C160; flat in the data-set size",
		Columns: []string{"records", "ms_per_record"},
	}
	for _, n := range opt.Sizes {
		s, err := build(opt, n, buildFlags{dc: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(d(n), ms(s.dcInsert.Seconds()/float64(n)))
	}
	return t, nil
}

// Fig12Query regenerates Figures 12(a)-(c): average time per range query,
// DC-tree vs X-tree, at the given selectivity (0.01, 0.05, 0.25).
func Fig12Query(opt Options, selectivity float64, figure string) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 12(%s): Time per Query, Selectivity %g%%",
			figure, selectivity*100),
		Note:    "paper: DC-tree ≈4.5x faster than the X-tree at every size",
		Columns: []string{"records", "dc_ms_per_query", "x_ms_per_query", "speedup"},
	}
	for _, n := range opt.Sizes {
		s, err := build(opt, n, buildFlags{dc: true, x: true, scan: opt.Verify})
		if err != nil {
			return nil, err
		}
		dcSec, xSec, _, err := s.queryTimes(opt, selectivity)
		if err != nil {
			return nil, err
		}
		sp := 0.0
		if dcSec > 0 {
			sp = xSec / dcSec
		}
		t.AddRow(d(n), ms(dcSec), ms(xSec), fx(sp))
	}
	return t, nil
}

// Fig12dSeqScan regenerates Figure 12(d): DC-tree vs sequential search at
// selectivity 25 % (the DC-tree's worst case; still ≥12.5x in the paper).
func Fig12dSeqScan(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 12(d): Time per Query, Selectivity 25% — DC-tree vs Sequential Search",
		Note:    "paper: ≥12.5x speedup even in the DC-tree's worst case",
		Columns: []string{"records", "dc_ms_per_query", "seqscan_ms_per_query", "speedup"},
	}
	for _, n := range opt.Sizes {
		s, err := build(opt, n, buildFlags{dc: true, scan: true})
		if err != nil {
			return nil, err
		}
		dcSec, _, scanSec, err := s.queryTimes(opt, 0.25)
		if err != nil {
			return nil, err
		}
		sp := 0.0
		if dcSec > 0 {
			sp = scanSec / dcSec
		}
		t.AddRow(d(n), ms(dcSec), ms(scanSec), fx(sp))
	}
	return t, nil
}

// Fig13NodeSizes regenerates Figure 13: average node size (entries) at the
// two highest levels below the root. The paper observes the second level
// stabilizing around 2.5x the single-block directory capacity (supernode
// effect) while the highest level stabilizes near 15 entries.
func Fig13NodeSizes(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 13: Node Sizes (avg entries) per Level below the Root",
		Note: fmt.Sprintf("directory capacity per block = %d; paper: 2nd level ≈ 2.5x capacity via supernodes",
			opt.DCConfig.DirCapacity),
		Columns: []string{"records", "level1_avg_entries", "level2_avg_entries", "level1_supernodes", "level2_supernodes", "height"},
	}
	for _, n := range opt.Sizes {
		s, err := build(opt, n, buildFlags{dc: true})
		if err != nil {
			return nil, err
		}
		levels, err := s.dc.LevelStats()
		if err != nil {
			return nil, err
		}
		get := func(lvl int) (string, string) {
			if lvl >= len(levels) {
				return "-", "-"
			}
			return f1(levels[lvl].AvgEntries), d(levels[lvl].Supernodes)
		}
		e1, s1 := get(1)
		e2, s2 := get(2)
		t.AddRow(d(n), e1, e2, s1, s2, d(len(levels)))
	}
	return t, nil
}

// Speedups aggregates the headline claims: the query speedup factors of
// the DC-tree over the X-tree per selectivity, and over the sequential
// search at 25 %.
func Speedups(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Headline speedups (DC-tree vs baselines, largest size)",
		Note:    "paper: ≈4.5x vs X-tree across selectivities; ≥12.5x vs sequential search at 25%",
		Columns: []string{"comparison", "selectivity", "dc_ms", "baseline_ms", "speedup"},
	}
	n := opt.Sizes[len(opt.Sizes)-1]
	s, err := build(opt, n, buildFlags{dc: true, x: true, scan: true})
	if err != nil {
		return nil, err
	}
	for _, sel := range []float64{0.01, 0.05, 0.25} {
		dcSec, xSec, scanSec, err := s.queryTimes(opt, sel)
		if err != nil {
			return nil, err
		}
		t.AddRow("DC vs X-tree", fmt.Sprintf("%g%%", sel*100), ms(dcSec), ms(xSec), fx(xSec/dcSec))
		if sel == 0.25 {
			t.AddRow("DC vs seq. search", "25%", ms(dcSec), ms(scanSec), fx(scanSec/dcSec))
		}
	}
	return t, nil
}

// Rollup measures the OLAP roll-up workload of the paper's motivating
// scenarios (§1): one or two dimensions constrained at coarse hierarchy
// levels, the rest unconstrained. This is where the materialized
// directory aggregates dominate: most of the range is answered without
// descending, while the X-tree and the scan must fetch every matching
// record.
func Rollup(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title: "OLAP roll-up queries (1-2 coarse dimensions constrained)",
		Note:  "the paper's motivating workload; dc_mat_hits = subtrees answered from directory aggregates",
		Columns: []string{"records", "dc_ms", "x_ms", "scan_ms",
			"dc/x_speedup", "dc/scan_speedup", "dc_mat_hits", "dc_node_visits"},
	}
	for _, n := range opt.Sizes {
		s, err := build(opt, n, buildFlags{dc: true, x: true, scan: true})
		if err != nil {
			return nil, err
		}
		w, err := s.rollupWork(opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(d(n), ms(w.dcSec), ms(w.xSec), ms(w.scanSec),
			fx(w.xSec/w.dcSec), fx(w.scanSec/w.dcSec), f1(w.dcMaterializedHits), f1(w.dcVisits))
	}
	return t, nil
}

// rollupWork runs the roll-up workload against the built systems.
func (s *systems) rollupWork(opt Options) (queryWork, error) {
	var w queryWork
	qg := s.gen.Queries(opt.Seed + 4242)
	queries := make([]tpcd.Query, opt.QueriesPerPoint)
	for i := range queries {
		var err error
		queries[i], err = qg.Rollup(1 + i%2)
		if err != nil {
			return w, err
		}
	}
	if opt.Verify {
		if err := s.verify(queries); err != nil {
			return w, err
		}
	}
	nq := float64(len(queries))
	if s.dc != nil {
		start := time.Now()
		for _, q := range queries {
			res, err := s.dc.Execute(context.Background(),
				core.QueryRequest{Query: q.MDS, CollectStats: true})
			if err != nil {
				return w, err
			}
			w.dcVisits += float64(res.Stats.NodesVisited)
			w.dcMaterializedHits += float64(res.Stats.MaterializedHits)
		}
		w.dcSec = time.Since(start).Seconds() / nq
		w.dcVisits /= nq
		w.dcMaterializedHits /= nq
	}
	if s.xt != nil {
		start := time.Now()
		for _, q := range queries {
			if _, _, err := s.xt.RangeQuery(q.Rect, q.Filter); err != nil {
				return w, err
			}
		}
		w.xSec = time.Since(start).Seconds() / nq
	}
	if s.scan != nil {
		start := time.Now()
		for _, q := range queries {
			if _, err := s.scan.RangeAgg(q.MDS, 0); err != nil {
				return w, err
			}
		}
		w.scanSec = time.Since(start).Seconds() / nq
	}
	return w, nil
}

// Bitmap compares the DC-tree against a bitmap join index (§2 related
// work): per-attribute-value compressed bit vectors at every hierarchy
// level. The bitmap index is fast on low selectivities but must fetch
// every qualifying fact row for the aggregation (secondary index), cannot
// delete without a rebuild, and its memory grows with levels × values.
func Bitmap(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Bitmap join index baseline (§2 related work)",
		Note:  "bitmaps locate rows but still fetch every matching record; deletion requires a rebuild",
		Columns: []string{"records", "selectivity", "dc_ms", "bitmap_ms",
			"dc/bitmap", "bitmap_rows_fetched", "bitmap_MB"},
	}
	for _, n := range opt.Sizes {
		s, err := build(opt, n, buildFlags{dc: true, bm: true, scan: opt.Verify})
		if err != nil {
			return nil, err
		}
		for _, sel := range []float64{0.01, 0.05, 0.25} {
			qg := s.gen.Queries(opt.Seed + int64(sel*1000) + 77)
			queries := make([]tpcd.Query, opt.QueriesPerPoint)
			for i := range queries {
				queries[i], err = qg.Query(sel)
				if err != nil {
					return nil, err
				}
			}
			if opt.Verify {
				if err := s.verify(queries); err != nil {
					return nil, err
				}
			}
			nq := float64(len(queries))
			start := time.Now()
			for _, q := range queries {
				if _, err := s.dc.Execute(context.Background(), core.QueryRequest{Query: q.MDS}); err != nil {
					return nil, err
				}
			}
			dcSec := time.Since(start).Seconds() / nq

			before := s.bm.RowsFetched
			start = time.Now()
			for _, q := range queries {
				if _, err := s.bm.RangeAgg(q.MDS, 0); err != nil {
					return nil, err
				}
			}
			bmSec := time.Since(start).Seconds() / nq
			fetched := float64(s.bm.RowsFetched-before) / nq

			t.AddRow(d(n), fmt.Sprintf("%g%%", sel*100), ms(dcSec), ms(bmSec),
				fx(bmSec/dcSec), f1(fetched),
				fmt.Sprintf("%.1f", float64(s.bm.MemoryBytes())/(1<<20)))
		}
	}
	return t, nil
}

// Views compares the DC-tree against statically materialized views with
// HRU greedy selection (§2 related work, the paper's [7]). The last two
// columns are the paper's whole argument in one row: a single record
// insert costs the view store a full rebuild, while the DC-tree absorbs
// it in microseconds and stays continuously queryable.
func Views(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Materialized-view baseline (HRU greedy selection, §2 related work)",
		Note:  "update cost is the point: one insert ⇒ full view rebuild vs one dynamic DC-tree insert",
		Columns: []string{"records", "views", "cells", "dc_ms_per_query", "views_ms_per_query",
			"view_fallbacks", "rebuild_after_1_insert_ms", "dc_insert_ms"},
	}
	for _, n := range opt.Sizes {
		s, err := build(opt, n, buildFlags{dc: true})
		if err != nil {
			return nil, err
		}
		vs := views.New(s.gen.Schema())
		for _, r := range s.recs {
			if err := vs.Append(r); err != nil {
				return nil, err
			}
		}
		budget := n / 2 // half the fact table's cells
		if err := vs.Build(budget); err != nil {
			return nil, err
		}

		qg := s.gen.Queries(opt.Seed + 4242)
		queries := make([]tpcd.Query, opt.QueriesPerPoint)
		for i := range queries {
			queries[i], err = qg.Rollup(1 + i%2)
			if err != nil {
				return nil, err
			}
		}
		if opt.Verify {
			for i, q := range queries {
				wantRes, err := s.dc.Execute(context.Background(), core.QueryRequest{Query: q.MDS})
				if err != nil {
					return nil, err
				}
				want := wantRes.Agg
				got, err := vs.RangeAgg(q.MDS, 0)
				if err != nil {
					return nil, err
				}
				if got.Count != want.Count || !close6(got.Sum, want.Sum) {
					return nil, fmt.Errorf("bench: query %d: views %+v != dc %+v", i, got, want)
				}
			}
		}
		nq := float64(len(queries))
		start := time.Now()
		for _, q := range queries {
			if _, err := s.dc.Execute(context.Background(), core.QueryRequest{Query: q.MDS}); err != nil {
				return nil, err
			}
		}
		dcSec := time.Since(start).Seconds() / nq
		fallbacksBefore := vs.Fallbacks
		start = time.Now()
		for _, q := range queries {
			if _, err := vs.RangeAgg(q.MDS, 0); err != nil {
				return nil, err
			}
		}
		vSec := time.Since(start).Seconds() / nq
		fallbacks := vs.Fallbacks - fallbacksBefore

		// The update trade-off: one new record.
		extra := s.gen.Record()
		start = time.Now()
		if err := s.dc.Insert(extra); err != nil {
			return nil, err
		}
		dcInsert := time.Since(start)
		if err := vs.Append(extra); err != nil {
			return nil, err
		}
		start = time.Now()
		if err := vs.Build(budget); err != nil {
			return nil, err
		}
		rebuild := time.Since(start)

		t.AddRow(d(n), d(vs.ViewCount()), d(vs.TotalCells()),
			ms(dcSec), ms(vSec), d64(fallbacks),
			ms(rebuild.Seconds()), ms(dcInsert.Seconds()))
	}
	return t, nil
}

// Ablation measures the contribution of the DC-tree's design choices:
// materialized aggregates on/off, supernodes on/off, and the split
// overlap threshold.
func Ablation(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: query time at selectivity 5% (smallest size)",
		Columns: []string{"variant", "insert_s", "dc_ms_per_query", "height", "supernodes"},
	}
	n := opt.Sizes[0]
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"default", func(*core.Config) {}},
		{"no materialization", func(c *core.Config) { c.Materialize = false }},
		{"no supernodes", func(c *core.Config) { c.DisableSupernodes = true }},
		{"overlap threshold 0%", func(c *core.Config) { c.MaxOverlapRatio = 0.001 }},
		{"overlap threshold 50%", func(c *core.Config) { c.MaxOverlapRatio = 0.5 }},
		{"hierarchy-blind choose_subtree", func(c *core.Config) { c.FlatChooseSubtree = true }},
	}
	for _, v := range variants {
		o := opt
		v.mutate(&o.DCConfig)
		s, err := build(o, n, buildFlags{dc: true})
		if err != nil {
			return nil, err
		}
		dcSec, _, _, err := s.queryTimes(o, 0.05)
		if err != nil {
			return nil, err
		}
		levels, err := s.dc.LevelStats()
		if err != nil {
			return nil, err
		}
		supers := 0
		for _, l := range levels {
			supers += l.Supernodes
		}
		t.AddRow(v.name, f3(s.dcInsert.Seconds()), ms(dcSec), d(len(levels)), d(supers))
	}

	// Bulk load vs dynamic insertion: the §1 trade-off the DC-tree is
	// designed to avoid — a bulk window builds the index faster, but the
	// warehouse is offline while it runs.
	{
		scale := opt.Scale
		if scale == (tpcd.Scale{}) {
			scale = tpcd.ScaleFor(n)
		}
		gen, err := tpcd.New(opt.Seed, scale)
		if err != nil {
			return nil, err
		}
		recs := gen.Records(n)
		dc, err := core.New(storage.NewMemStore(opt.DCConfig.BlockSize), gen.Schema(), opt.DCConfig)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := dc.BulkLoad(recs); err != nil {
			return nil, err
		}
		bulkSec := time.Since(start)
		s := &systems{gen: gen, recs: recs, dc: dc, dcInsert: bulkSec}
		dcSec, _, _, err := s.queryTimes(opt, 0.05)
		if err != nil {
			return nil, err
		}
		levels, err := dc.LevelStats()
		if err != nil {
			return nil, err
		}
		supers := 0
		for _, l := range levels {
			supers += l.Supernodes
		}
		t.AddRow("bulk load (offline)", f3(bulkSec.Seconds()), ms(dcSec), d(len(levels)), d(supers))
	}
	return t, nil
}

// All runs every experiment and returns the tables in paper order.
// Unlike the standalone drivers, All builds each data-set size exactly
// once (DC-tree, X-tree and sequential scan together) and derives every
// figure from the shared builds, which keeps the paper-scale sweep
// (100k–300k records) tractable.
func All(opt Options) ([]*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	builds := make([]*systems, len(opt.Sizes))
	for i, n := range opt.Sizes {
		s, err := build(opt, n, buildFlags{dc: true, x: true, scan: true, bm: true})
		if err != nil {
			return nil, err
		}
		builds[i] = s
	}

	fig11a := &Table{
		Title:   "Figure 11(a): Insertion Time (total)",
		Note:    "paper: X-tree inserts significantly faster in total; both grow linearly",
		Columns: []string{"records", "dc_tree_s", "x_tree_s", "dc/x"},
	}
	fig11b := &Table{
		Title:   "Figure 11(b): DC-tree Insertion Time per Data Record",
		Note:    "paper: ~0.025 s/record on a 1999 HP C160; flat in the data-set size",
		Columns: []string{"records", "ms_per_record"},
	}
	fig13 := &Table{
		Title: "Figure 13: Node Sizes (avg entries) per Level below the Root",
		Note: fmt.Sprintf("directory capacity per block = %d; paper: 2nd level ≈ 2.5x capacity via supernodes",
			opt.DCConfig.DirCapacity),
		Columns: []string{"records", "level1_avg_entries", "level2_avg_entries", "level1_supernodes", "level2_supernodes", "height"},
	}
	fig12 := map[float64]*Table{}
	for _, f := range []struct {
		sel float64
		fig string
	}{{0.01, "a"}, {0.05, "b"}, {0.25, "c"}} {
		fig12[f.sel] = &Table{
			Title: fmt.Sprintf("Figure 12(%s): Time per Query, Selectivity %g%%",
				f.fig, f.sel*100),
			Note:    "paper: DC-tree ≈4.5x faster than the X-tree at every size",
			Columns: []string{"records", "dc_ms_per_query", "x_ms_per_query", "speedup"},
		}
	}
	fig12d := &Table{
		Title:   "Figure 12(d): Time per Query, Selectivity 25% — DC-tree vs Sequential Search",
		Note:    "paper: ≥12.5x speedup even in the DC-tree's worst case",
		Columns: []string{"records", "dc_ms_per_query", "seqscan_ms_per_query", "speedup"},
	}
	speed := &Table{
		Title:   "Headline speedups (DC-tree vs baselines, largest size)",
		Note:    "paper: ≈4.5x vs X-tree across selectivities; ≥12.5x vs sequential search at 25%",
		Columns: []string{"comparison", "selectivity", "dc_ms", "baseline_ms", "speedup"},
	}
	logio := &Table{
		Title: "Logical I/O per query (node visits — the paper's 1999 disk-bound cost model)",
		Note:  "dc_mat_hits = subtrees answered from materialized aggregates without descending",
		Columns: []string{"records", "selectivity", "dc_node_visits", "x_node_visits",
			"dc_mat_hits", "seqscan_records"},
	}
	rollup := &Table{
		Title: "OLAP roll-up queries (1-2 coarse dimensions constrained)",
		Note:  "the paper's motivating workload; dc_mat_hits = subtrees answered from directory aggregates",
		Columns: []string{"records", "dc_ms", "x_ms", "scan_ms",
			"dc/x_speedup", "dc/scan_speedup", "dc_mat_hits", "dc_node_visits"},
	}
	bmTable := &Table{
		Title: "Bitmap join index baseline (§2 related work)",
		Note:  "bitmaps locate rows but still fetch every matching record; deletion requires a rebuild",
		Columns: []string{"records", "selectivity", "dc_ms", "bitmap_ms",
			"dc/bitmap", "bitmap_MB"},
	}

	for i, s := range builds {
		n := opt.Sizes[i]
		dcIns, xIns := s.dcInsert.Seconds(), s.xInsert.Seconds()
		ratio := 0.0
		if xIns > 0 {
			ratio = dcIns / xIns
		}
		fig11a.AddRow(d(n), f3(dcIns), f3(xIns), fx(ratio))
		fig11b.AddRow(d(n), ms(dcIns/float64(n)))

		levels, err := s.dc.LevelStats()
		if err != nil {
			return nil, err
		}
		get := func(lvl int) (string, string) {
			if lvl >= len(levels) {
				return "-", "-"
			}
			return f1(levels[lvl].AvgEntries), d(levels[lvl].Supernodes)
		}
		e1, s1 := get(1)
		e2, s2 := get(2)
		fig13.AddRow(d(n), e1, e2, s1, s2, d(len(levels)))

		rw, err := s.rollupWork(opt)
		if err != nil {
			return nil, err
		}
		rollup.AddRow(d(n), ms(rw.dcSec), ms(rw.xSec), ms(rw.scanSec),
			fx(rw.xSec/rw.dcSec), fx(rw.scanSec/rw.dcSec), f1(rw.dcMaterializedHits), f1(rw.dcVisits))

		last := i == len(builds)-1
		for _, sel := range []float64{0.01, 0.05, 0.25} {
			w, err := s.queryWork(opt, sel)
			if err != nil {
				return nil, err
			}
			dcSec, xSec, scanSec := w.dcSec, w.xSec, w.scanSec
			sp := 0.0
			if dcSec > 0 {
				sp = xSec / dcSec
			}
			fig12[sel].AddRow(d(n), ms(dcSec), ms(xSec), fx(sp))
			logio.AddRow(d(n), fmt.Sprintf("%g%%", sel*100),
				f1(w.dcVisits), f1(w.xVisits), f1(w.dcMaterializedHits), f1(w.scanRecords))
			bmSec, err := s.bitmapTime(opt, sel)
			if err != nil {
				return nil, err
			}
			bmTable.AddRow(d(n), fmt.Sprintf("%g%%", sel*100), ms(dcSec), ms(bmSec),
				fx(bmSec/dcSec), fmt.Sprintf("%.1f", float64(s.bm.MemoryBytes())/(1<<20)))
			if sel == 0.25 {
				scanSp := 0.0
				if dcSec > 0 {
					scanSp = scanSec / dcSec
				}
				fig12d.AddRow(d(n), ms(dcSec), ms(scanSec), fx(scanSp))
			}
			if last {
				speed.AddRow("DC vs X-tree", fmt.Sprintf("%g%%", sel*100), ms(dcSec), ms(xSec), fx(sp))
				if sel == 0.25 {
					speed.AddRow("DC vs seq. search", "25%", ms(dcSec), ms(scanSec), fx(scanSec/dcSec))
				}
			}
		}
	}

	tables := []*Table{
		fig11a, fig11b,
		fig12[0.01], fig12[0.05], fig12[0.25],
		fig12d, fig13, speed, logio, rollup, bmTable,
	}
	if !opt.SkipAblation {
		ablation, err := Ablation(opt)
		if err != nil {
			return nil, err
		}
		tables = append(tables, ablation)
	}
	return tables, nil
}

// bitmapTime measures the bitmap index's average query time on the same
// workload queryWork uses.
func (s *systems) bitmapTime(opt Options, selectivity float64) (float64, error) {
	if s.bm == nil {
		return 0, nil
	}
	qg := s.gen.Queries(opt.Seed + int64(selectivity*1000) + 77)
	queries := make([]tpcd.Query, opt.QueriesPerPoint)
	for i := range queries {
		var err error
		queries[i], err = qg.Query(selectivity)
		if err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for _, q := range queries {
		if _, err := s.bm.RangeAgg(q.MDS, 0); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(len(queries)), nil
}

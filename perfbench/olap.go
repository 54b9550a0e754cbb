package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcindex/dctree"
)

// olap_read: two closed-loop analysts replay a fixed list of the paper's
// range queries (1 %, 5 %, 25 % selectivity) and roll-ups against a cube
// that was bulk-loaded, updated record by record, checkpointed, closed and
// reopened from its file store. Only the read path works in the window.

type olapParams struct {
	BaseRecords       int     `json:"base_records"`
	SetupUpdates      int     `json:"setup_updates"`
	UpdateDeleteShare float64 `json:"update_delete_share"`
	QueriesPerKind    int     `json:"queries_per_kind"`
	DistinctQueries   int     `json:"distinct_queries"`
	Analysts          int     `json:"analysts"`
	PoolBytes         int     `json:"pool_bytes"`
	SetupRepeats      int     `json:"setup_repeats"`
}

// fileTree is a tree with the file store under it.
type fileTree struct {
	store dctree.Store
	tree  *dctree.Tree
	path  string
}

func (f fileTree) drop() {
	f.tree.Close()
	f.store.Close()
	os.Remove(f.path)
}

func runOLAPRead(e *env) (*outcome, error) {
	p := olapParams{BaseRecords: 100000, SetupUpdates: 5000, UpdateDeleteShare: 0.1,
		Analysts: 2, PoolBytes: 4 << 20, SetupRepeats: 3}
	if e.cfg.tiny {
		p.BaseRecords, p.SetupUpdates, p.QueriesPerKind, p.SetupRepeats = 3000, 300, 6, 2
	}
	o := &outcome{report: metrics{}}

	cg, err := newCubeGen(e.cfg.seed, p.BaseRecords)
	if err != nil {
		return nil, err
	}
	base := cg.baseRecords(p.BaseRecords, len(cg.days))
	live := &liveSet{recs: append([]dctree.Record(nil), base...)}
	updates := cg.writeStream(p.SetupUpdates, p.UpdateDeleteShare, live,
		func(int) int { return cg.rng.Intn(len(cg.days)) })
	if !e.cfg.tiny {
		p.QueriesPerKind = 2 * cg.levelCombos() // two range queries per level combination
	}
	qs, err := cg.queries(e.cfg.seed+1, p.QueriesPerKind, qRange01, qRange05, qRange25, qRollup)
	if err != nil {
		return nil, err
	}
	p.DistinctQueries = len(qs)
	dg := newInputDigest()
	dg.records(base)
	dg.ops(updates)
	dg.queries(qs)
	o.params, o.digest = p, dg.String()

	ft, err := timeSetup(e, o, p.SetupRepeats, func(i int) (fileTree, error) {
		return buildOLAPTree(filepath.Join(e.dir, fmt.Sprintf("olap-%d.dc", i)), cg.schema, base, updates, p.PoolBytes)
	}, fileTree.drop)
	if err != nil {
		return nil, err
	}
	defer ft.drop()
	tree := ft.tree

	// Oracle check of every distinct query; the same pass warms the node
	// cache and the mapping before the clock starts.
	var expected []dctree.Agg
	err = e.phase(spVerify, func() error {
		want, err := oracleAnswers(cg.schema, live.recs, qs)
		if err != nil {
			return err
		}
		for i, q := range qs {
			res, err := tree.Execute(context.Background(), dctree.QueryRequest{Query: q.mds})
			if err != nil {
				return fmt.Errorf("query %d: %w", i, err)
			}
			if !sameAnswer(res.Agg, want[i]) {
				o.problem("query %d (%s): tree %+v, oracle %+v", i, q.kind, res.Agg, want[i])
			}
		}
		expected = want
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.logf("oracle checked %d distinct queries", len(qs))

	m0 := tree.Metrics()
	w := newWindow(time.Duration(e.cfg.seconds)*time.Second, e.cfg.trace)
	var done atomic.Int64
	lat := make([]samples, p.Analysts)
	byKind := make([][numQueryKinds]samples, p.Analysts)
	failed := make([]int64, p.Analysts)
	var wg sync.WaitGroup
	for a := 0; a < p.Analysts; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rec := e.tr.recorder(a + 1)
			ctx := context.Background()
			for n := 0; ; n++ {
				start := time.Now()
				if !start.Before(w.end()) {
					return
				}
				i := (a*len(qs)/p.Analysts + n) % len(qs)
				q := qs[i]
				r := rec
				if !w.traced(w.sliceAt(start)) {
					r = nil
				}
				op := uint64(a+1)<<48 | uint64(n)
				root := r.begin(spOpQuery, -1, op, uint8(q.kind))
				sp := r.begin(spExecute, root, op, uint8(q.kind))
				res, err := tree.Execute(ctx, dctree.QueryRequest{Query: q.mds})
				r.end(sp)
				r.end(root)
				d := time.Since(start)
				lat[a].add(d)
				byKind[a][q.kind].add(d)
				if err != nil || !sameAnswer(res.Agg, expected[i]) {
					failed[a]++
				}
				done.Add(1)
			}
		}(a)
	}
	sm := w.meter(&done)
	wg.Wait()
	elapsed := time.Since(w.start).Seconds()
	heap := heapLiveMB()
	m1 := tree.Metrics()

	all := &samples{}
	for a := range lat {
		all.merge(&lat[a])
		o.failed += failed[a]
	}
	o.attempted = done.Load()
	rep := o.report
	rep.set("ops_per_s", float64(o.attempted)/elapsed, "1/s")
	rep.setPct("op_p50_us", all, 0.5)
	rep.set("query_per_s", float64(o.attempted)/elapsed, "1/s")
	rep.setPct("query_p50_us", all, 0.5)
	rep.setPct("query_p99_us", all, 0.99)
	for k := queryKind(0); k < numQueryKinds; k++ {
		s := &samples{}
		for a := range byKind {
			s.merge(&byKind[a][k])
		}
		rep.setPct("query_p50_us."+k.String(), s, 0.5)
	}
	rep.set("heap_live_mb", heap, "MiB")
	counterDeltas(rep, m0, m1, dctree.WALStats{}, dctree.WALStats{}, 0, m1.Queries-m0.Queries)
	rep.set("runtime.allocs_per_query", ratio(float64(sm.allocs.mallocs), float64(sm.ops[0])), "count")
	if e.tr != nil {
		queryLayers(rep, e.tr)
		rep.set("trace.overhead_pct", sm.overheadPct(), "%")
	}

	err = e.phase(spVerify, func() error {
		if err := tree.Validate(); err != nil {
			o.problem("Validate after window: %v", err)
		}
		if got := tree.Count(); got != int64(len(live.recs)) {
			o.problem("tree holds %d records, oracle %d", got, len(live.recs))
		}
		fi, err := os.Stat(ft.path)
		if err != nil {
			return err
		}
		rep.set("disk_bytes_per_record", ratio(float64(fi.Size()), float64(tree.Count())), "B")
		return nil
	})
	return o, err
}

// buildOLAPTree bulk-loads base into a fresh file store, applies the update
// stream record by record, checkpoints, closes and reopens the store.
func buildOLAPTree(path string, schema *dctree.Schema, base []dctree.Record, updates []writeOp, pool int) (fileTree, error) {
	st, err := dctree.OpenFileStore(path, dctree.DefaultConfig().BlockSize, pool)
	if err != nil {
		return fileTree{}, err
	}
	tree, err := dctree.Open(st, dctree.WithSchema(schema))
	if err != nil {
		st.Close()
		return fileTree{}, err
	}
	if err := tree.BulkLoad(append([]dctree.Record(nil), base...)); err != nil {
		st.Close()
		return fileTree{}, err
	}
	if err := applyWrites(tree, updates); err != nil {
		st.Close()
		return fileTree{}, err
	}
	if err := tree.Close(); err != nil {
		st.Close()
		return fileTree{}, err
	}
	if err := st.Close(); err != nil {
		return fileTree{}, err
	}
	if st, err = dctree.OpenFileStore(path, dctree.DefaultConfig().BlockSize, pool); err != nil {
		return fileTree{}, err
	}
	if tree, err = dctree.Open(st); err != nil {
		st.Close()
		return fileTree{}, err
	}
	return fileTree{store: st, tree: tree, path: path}, nil
}

// applyWrites replays a write stream serially.
func applyWrites(tree *dctree.Tree, ops []writeOp) error {
	for i, op := range ops {
		var err error
		if op.kind == opInsert {
			err = tree.Insert(op.rec)
		} else {
			err = tree.Delete(op.rec)
		}
		if err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
	}
	return nil
}

// queryLayers fills the span-timed query metrics of a traced run.
func queryLayers(rep metrics, tr *tracer) {
	for k := queryKind(0); k < numQueryKinds; k++ {
		rep.setPct("core.query.execute_us."+k.String()+".p50", tr.durations(spExecute, uint8(k)), 0.5)
	}
	rep.setPct("core.query.call_us.p99", tr.durations(spExecute, noTag), 0.99)
}

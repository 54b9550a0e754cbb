package main

import (
	"context"
	"fmt"
	"time"

	"github.com/dcindex/dctree"
)

// ingest: one closed-loop loader replays fixed streams of single-record
// writes — about 90 % inserts fed as string paths through
// Schema.InternRecord, 10 % deletes of live records in random order —
// into in-memory trees bulk-loaded with a 50k-record base, the paper's
// Fig. 11 setup. No queries, no log: the CPU insert path does all the
// work.
//
// Insert cost depends strongly on the shape a tree happens to grow
// (supernodes above all), which differs from one set of fact rows to the
// next. A run therefore loads several independent trees from the seed and
// splits the op stream between them, so its figures average over shapes
// instead of following one tree's luck.

type ingestParams struct {
	Trees         int     `json:"trees"`
	BaseRecords   int     `json:"base_records_per_tree"`
	WarmupWrites  int     `json:"warmup_writes_per_tree"`
	Ops           int     `json:"ops"`
	OpsPerSecond  int     `json:"ops_per_second"`
	DeleteShare   float64 `json:"delete_share"`
	VerifyQueries int     `json:"verify_queries_per_tree"`
}

// ingestTotals accumulates the window over the trees of a run.
type ingestTotals struct {
	lat, ins, del  samples
	sm             sliceMeter
	counters       dctree.Metrics
	heap, setup    []float64
	rates          []float64
	lastCachedNode int
}

func runIngest(e *env) (*outcome, error) {
	// The op count is fixed so that every run with one seed does the same
	// work on the same tree states; OpsPerSecond sizes it to fill about
	// --seconds on the reference host (README.md).
	p := ingestParams{Trees: 6, BaseRecords: 50000, WarmupWrites: 1000, OpsPerSecond: 7000, DeleteShare: 0.1}
	perKind := 4
	if e.cfg.tiny {
		p.Trees, p.BaseRecords, p.WarmupWrites, p.OpsPerSecond, perKind = 2, 2000, 100, 400, 2
	}
	perTree := p.OpsPerSecond * e.cfg.seconds / p.Trees
	p.Ops = perTree * p.Trees
	p.VerifyQueries = 4 * perKind
	o := &outcome{params: p, report: metrics{}}

	cg, err := newCubeGen(e.cfg.seed, p.BaseRecords+perTree)
	if err != nil {
		return nil, err
	}
	dg := newInputDigest()
	var tot ingestTotals
	rec := e.tr.recorder(1)
	for k := 0; k < p.Trees; k++ {
		if err := ingestTree(e, o, &tot, cg, dg, rec, p, k, perKind, perTree); err != nil {
			return nil, err
		}
	}
	o.digest = dg.String()
	o.attempted = int64(p.Ops)

	rep := o.report
	rep["setup_s"] = metric{Value: median(tot.setup), Unit: "s", Samples: len(tot.setup)}
	// The rate is the median over the trees, so one tree's unlucky shape
	// (or a burst of host noise) does not set the run's figure.
	rep["ops_per_s"] = metric{Value: median(tot.rates), Unit: "1/s", Samples: len(tot.rates)}
	rep.setPct("op_p50_us", &tot.lat, 0.5)
	rep["write_per_s"] = rep["ops_per_s"]
	rep["write_p50_us"] = rep["op_p50_us"]
	rep.setPct("write_p99_us", &tot.lat, 0.99)
	rep.setPct("insert_p50_us", &tot.ins, 0.5)
	rep.setPct("delete_p50_us", &tot.del, 0.5)
	rep["heap_live_mb"] = metric{Value: median(tot.heap), Unit: "MiB", Samples: len(tot.heap)}
	tot.counters.CachedNodes = tot.lastCachedNode
	counterDeltas(rep, dctree.Metrics{}, tot.counters, dctree.WALStats{}, dctree.WALStats{}, int64(p.Ops), 0)
	rep.set("runtime.allocs_per_write", ratio(float64(tot.sm.allocs.mallocs), float64(tot.sm.ops[0])), "count")
	rep.set("runtime.bytes_per_write", ratio(float64(tot.sm.allocs.bytes), float64(tot.sm.ops[0])), "B")
	if e.tr != nil {
		writeLayers(rep, e.tr)
		rep.setPct("hierarchy.intern_us.p50", e.tr.durations(spIntern, noTag), 0.5)
		rep.set("trace.overhead_pct", tot.sm.overheadPct(), "%")
	}
	e.logf("setup %.3fs median of %d trees, %.0f writes/s", median(tot.setup), len(tot.setup), median(tot.rates))
	return o, nil
}

// ingestTree generates, builds, loads and verifies tree k of a run.
func ingestTree(e *env, o *outcome, tot *ingestTotals, cg *cubeGen, dg *inputDigest, rec *recorder,
	p ingestParams, k, perKind, perTree int) error {
	base := cg.baseRecords(p.BaseRecords, len(cg.days))
	live := &liveSet{recs: append([]dctree.Record(nil), base...)}
	anyDay := func(int) int { return cg.rng.Intn(len(cg.days)) }
	// Warm-up writes take the bulk-loaded tree past its expensive first
	// splits during setup, so the window measures the steady insert path.
	warm := cg.writeStream(p.WarmupWrites, p.DeleteShare, live, anyDay)
	ops := cg.writeStream(perTree, p.DeleteShare, live, anyDay)
	paths, err := cg.recordPaths(ops)
	if err != nil {
		return err
	}
	qs, err := cg.queries(e.cfg.seed+1+int64(k), perKind, qRange01, qRange05, qRange25, qRollup)
	if err != nil {
		return err
	}
	dg.records(base)
	dg.ops(warm)
	dg.ops(ops)
	dg.queries(qs)

	var tree *dctree.Tree
	t0 := time.Now()
	err = e.phase(spSetup, func() error {
		var err error
		if tree, err = dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(cg.schema)); err != nil {
			return err
		}
		if err := tree.BulkLoad(append([]dctree.Record(nil), base...)); err != nil {
			return err
		}
		return applyWrites(tree, warm)
	})
	if err != nil {
		return err
	}
	tot.setup = append(tot.setup, time.Since(t0).Seconds())
	schema := tree.Schema()

	// The loader is the only client, so it cuts its window into slices by
	// op index itself: four alternating untraced/traced slices in a traced
	// run, one otherwise.
	slices := 1
	if e.cfg.trace {
		slices = 4
	}
	m0 := tree.Metrics()
	start := time.Now()
	sliceStart, allocStart := start, readAlloc()
	for s := 0; s < slices; s++ {
		traced := e.cfg.trace && s%2 == 1
		r := rec
		if !traced {
			r = nil
		}
		lo, hi := s*len(ops)/slices, (s+1)*len(ops)/slices
		for i := lo; i < hi; i++ {
			op := &ops[i]
			id := uint64(k+1)<<48 | uint64(i)
			t0 := time.Now()
			root := r.begin(spOpWrite, -1, id, noTag)
			var err error
			var got dctree.Record
			if op.kind == opInsert {
				sp := r.begin(spIntern, root, id, noTag)
				got, err = schema.InternRecord(paths[i], op.rec.Measures)
				r.end(sp)
				if err == nil {
					sp = r.begin(spInsert, root, id, noTag)
					err = tree.Insert(got)
					r.end(sp)
				}
			} else {
				sp := r.begin(spDelete, root, id, noTag)
				err = tree.Delete(op.rec)
				r.end(sp)
			}
			r.end(root)
			d := time.Since(t0)
			tot.lat.add(d)
			if op.kind == opInsert {
				tot.ins.add(d)
				if err == nil && !sameCoords(got, op.rec) {
					err = fmt.Errorf("interned coordinates differ from the generated record")
				}
			} else {
				tot.del.add(d)
			}
			if err != nil {
				o.failed++
				if len(o.problems) < 5 {
					o.problem("tree %d write %d: %v", k, i, err)
				}
			}
		}
		now, alloc := time.Now(), readAlloc()
		j := 0
		if traced {
			j = 1
		} else {
			tot.sm.allocs.mallocs += alloc.sub(allocStart).mallocs
			tot.sm.allocs.bytes += alloc.sub(allocStart).bytes
		}
		tot.sm.ops[j] += int64(hi - lo)
		tot.sm.secs[j] += now.Sub(sliceStart).Seconds()
		sliceStart, allocStart = now, alloc
	}
	tot.rates = append(tot.rates, float64(len(ops))/time.Since(start).Seconds())
	tot.heap = append(tot.heap, heapLiveMB())
	m1 := tree.Metrics()
	addMetricsDelta(&tot.counters, m0, m1)
	tot.lastCachedNode = m1.CachedNodes

	return e.phase(spVerify, func() error {
		if err := tree.Validate(); err != nil {
			o.problem("tree %d: Validate after window: %v", k, err)
		}
		if got := tree.Count(); got != int64(len(live.recs)) {
			o.problem("tree %d holds %d records, oracle %d", k, got, len(live.recs))
		}
		want, err := oracleAnswers(cg.schema, live.recs, qs)
		if err != nil {
			return err
		}
		for i, q := range qs {
			res, err := tree.Execute(context.Background(), dctree.QueryRequest{Query: q.mds})
			if err != nil {
				return err
			}
			if !sameAnswer(res.Agg, want[i]) {
				o.problem("tree %d verify query %d (%s): tree %+v, oracle %+v", k, i, q.kind, res.Agg, want[i])
			}
		}
		return nil
	})
}

func sameCoords(a, b dctree.Record) bool {
	if len(a.Coords) != len(b.Coords) {
		return false
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			return false
		}
	}
	return true
}

// writeLayers fills the span-timed write metrics of a traced run.
func writeLayers(rep metrics, tr *tracer) {
	ins, del := tr.durations(spInsert, noTag), tr.durations(spDelete, noTag)
	rep.setPct("core.insert.call_us.p50", ins, 0.5)
	rep.setPct("core.insert.call_us.p99", ins, 0.99)
	rep.setPct("core.delete.call_us.p50", del, 0.5)
	rep.setPct("core.delete.call_us.p99", del, 0.99)
}

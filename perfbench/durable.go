package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcindex/dctree"
	"github.com/dcindex/dctree/internal/storage"
)

// durable_mixed: a live warehouse on a WAL-backed file store with group
// commit, background fuzzy checkpoints and version retention. One
// open-loop loader sends writes at a fixed rate, arriving in Time order;
// one closed-loop analyst alternates a live query with snapshot → as-of
// query → release. A day-start version is held
// across the window. At the end the tree is abandoned without Close and
// recovered from its files.

type durableParams struct {
	BaseRecords          int     `json:"base_records"`
	BaseDays             int     `json:"base_days"`
	WarmupWrites         int     `json:"warmup_writes"`
	WriteRate            float64 `json:"write_rate_per_s"`
	Writes               int     `json:"writes"`
	DeleteShare          float64 `json:"delete_share"`
	DistinctQueries      int     `json:"distinct_queries"`
	CheckpointDirtyBytes int     `json:"checkpoint_dirty_bytes"`
	KeepLast             int     `json:"version_keep_last"`
	PoolBytes            int     `json:"pool_bytes"`
	SetupRepeats         int     `json:"setup_repeats"`
	MinAchievedShare     float64 `json:"min_achieved_share"`
	ThinkMS              float64 `json:"analyst_think_ms"`
}

// analystOp is one analyst op's answer with the range of write prefixes
// its state may reflect.
type analystOp struct {
	qi, lo, hi int
	asOf       bool
	agg        dctree.Agg
	err        error
}

// durableTree is a WAL-backed tree on a crashable file store.
type durableTree struct {
	store *crashStore
	tree  *dctree.Tree
	path  string // store file; the log segments share the prefix
}

func runDurableMixed(e *env) (*outcome, error) {
	p := durableParams{BaseRecords: 100000, WarmupWrites: 2000, WriteRate: 100, DeleteShare: 0.2,
		CheckpointDirtyBytes: 256 << 10, KeepLast: 4, PoolBytes: 4 << 20, SetupRepeats: 3,
		MinAchievedShare: 0.95, ThinkMS: 20}
	perKind := 48
	if e.cfg.tiny {
		p.BaseRecords, p.WarmupWrites, perKind, p.SetupRepeats = 3000, 100, 2, 2
		p.CheckpointDirtyBytes = 64 << 10
	}
	p.Writes = int(p.WriteRate * float64(e.cfg.seconds))
	o := &outcome{report: metrics{}}

	cg, err := newCubeGen(e.cfg.seed, p.BaseRecords)
	if err != nil {
		return nil, err
	}
	// The base covers the first 90 % of the calendar; new facts land day
	// by day over the rest.
	p.BaseDays = len(cg.days) * 9 / 10
	// The base is bulk-loaded and then updated record by record, so the
	// window starts past the expensive first splits of a packed tree.
	base := cg.baseRecords(p.BaseRecords, p.BaseDays)
	live := &liveSet{recs: append([]dctree.Record(nil), base...)}
	warm := cg.writeStream(p.WarmupWrites, 0.1, live, func(int) int { return cg.rng.Intn(p.BaseDays) })
	start := append([]dctree.Record(nil), live.recs...)
	newDays := len(cg.days) - p.BaseDays
	ops := cg.writeStream(p.Writes, p.DeleteShare, live,
		func(i int) int { return p.BaseDays + i*newDays/p.Writes })
	qs, err := cg.queries(e.cfg.seed+1, perKind, qRange01, qRange05, qRollup)
	if err != nil {
		return nil, err
	}
	p.DistinctQueries = len(qs)
	dg := newInputDigest()
	dg.records(base)
	dg.ops(warm)
	dg.ops(ops)
	dg.queries(qs)
	o.params, o.digest = p, dg.String()

	cfg := dctree.DefaultConfig()
	cfg.CheckpointDirtyBytes = p.CheckpointDirtyBytes
	cfg.VersionRetention = dctree.VersionRetention{KeepLast: p.KeepLast}
	dt, err := timeSetup(e, o, p.SetupRepeats, func(i int) (durableTree, error) {
		return buildDurableTree(filepath.Join(e.dir, fmt.Sprintf("durable-%d", i)), cg.schema, cfg, base, warm, p.PoolBytes)
	}, func(d durableTree) {
		d.tree.Close()
		d.store.Close()
		os.RemoveAll(filepath.Dir(d.path))
	})
	if err != nil {
		return nil, err
	}
	tree := dt.tree
	// Validate walks every node, so it also fills the node cache: the
	// window starts with the whole index resident, whatever the seed's
	// queries touch.
	err = e.phase(spVerify, func() error {
		if err := tree.Validate(); err != nil {
			o.problem("Validate before window: %v", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The day-start report: a version of the base state held across the
	// whole window, the checkpoints and the crash.
	held, err := tree.Snapshot()
	if err != nil {
		return nil, err
	}
	oracle, err := newPrefixOracle(cg.schema, start, ops, qs)
	if err != nil {
		return nil, err
	}

	m0, wal0 := tree.Metrics(), tree.WALStats()
	w := newWindow(time.Duration(e.cfg.seconds)*time.Second, e.cfg.trace)
	var started, completed, done atomic.Int64
	var writerDone atomic.Bool
	var wlat, late samples
	var wfail int64
	var lastFinish time.Time
	var aops []analystOp
	var qlat, alat samples
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // open-loop writer
		defer wg.Done()
		defer writerDone.Store(true)
		rec := e.tr.recorder(1)
		interval := time.Duration(float64(time.Second) / p.WriteRate)
		for i, op := range ops {
			due := w.start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			now := time.Now()
			late.add(now.Sub(due))
			r := rec
			if !w.traced(w.sliceAt(now)) {
				r = nil
			}
			id := uint64(1)<<48 | uint64(i)
			root := r.begin(spOpWrite, -1, id, noTag)
			started.Store(int64(i + 1))
			var err error
			if op.kind == opInsert {
				sp := r.begin(spInsert, root, id, noTag)
				err = tree.Insert(op.rec)
				r.end(sp)
			} else {
				sp := r.begin(spDelete, root, id, noTag)
				err = tree.Delete(op.rec)
				r.end(sp)
			}
			completed.Store(int64(i + 1))
			r.end(root)
			lastFinish = time.Now()
			wlat.add(lastFinish.Sub(due))
			if err != nil {
				wfail++
			}
			done.Add(1)
		}
	}()
	go func() { // closed-loop analyst
		defer wg.Done()
		think := time.Duration(p.ThinkMS * float64(time.Millisecond))
		rec := e.tr.recorder(2)
		ctx := context.Background()
		for n := 0; !writerDone.Load(); n++ {
			start := time.Now()
			r := rec
			if !w.traced(w.sliceAt(start)) {
				r = nil
			}
			id := uint64(2)<<48 | uint64(n)
			lo := int(completed.Load())
			if n%2 == 0 {
				a := analystOp{qi: n / 2 % len(qs), lo: lo}
				q := qs[a.qi]
				root := r.begin(spOpQuery, -1, id, uint8(q.kind))
				sp := r.begin(spExecute, root, id, uint8(q.kind))
				var res dctree.QueryResult
				res, a.err = tree.Execute(ctx, dctree.QueryRequest{Query: q.mds})
				a.agg = res.Agg
				r.end(sp)
				r.end(root)
				a.hi = int(started.Load())
				qlat.add(time.Since(start))
				aops = append(aops, a)
			} else {
				a := asOfOp(ctx, tree, qs, (n/2+len(qs)/2)%len(qs), r, id)
				a.lo, a.hi = lo, int(started.Load())
				alat.add(time.Since(start))
				aops = append(aops, a)
			}
			done.Add(1)
			time.Sleep(think)
		}
	}()
	sm := w.meter(&done)
	wg.Wait()
	elapsed := time.Since(w.start).Seconds()
	heap := heapLiveMB()
	m1, wal1 := tree.Metrics(), tree.WALStats()

	rep := o.report
	o.attempted = done.Load()
	o.failed = wfail
	rep.set("ops_per_s", float64(o.attempted)/elapsed, "1/s")
	rep.set("heap_live_mb", heap, "MiB")
	offered := p.WriteRate
	achieved := float64(len(ops)) / lastFinish.Sub(w.start).Seconds()
	rep.set("loadgen.offered_per_s", offered, "1/s")
	rep.set("loadgen.achieved_per_s", achieved, "1/s")
	rep.setPct("loadgen.late_p99_us", &late, 0.99)
	rep.set("loadgen.late_max_us", late.quantile(1), "us")
	if achieved < p.MinAchievedShare*offered {
		// A growing backlog makes latencies from due time meaningless: the
		// run is failed and reports none.
		o.problem("backlog: achieved %.1f writes/s of %.1f offered", achieved, offered)
	} else {
		rep.setPct("op_p50_us", &wlat, 0.5)
		rep.setPct("write_p50_us", &wlat, 0.5)
		rep.setPct("write_p99_us", &wlat, 0.99)
	}
	rep.set("query_per_s", float64(qlat.len())/elapsed, "1/s")
	rep.setPct("query_p50_us", &qlat, 0.5)
	rep.setPct("query_p99_us", &qlat, 0.99)
	rep.setPct("asof_p50_us", &alat, 0.5)
	rep.setPct("asof_p99_us", &alat, 0.99)
	counterDeltas(rep, m0, m1, wal0, wal1, int64(len(ops)), m1.Queries-m0.Queries)
	if e.tr != nil {
		writeLayers(rep, e.tr)
		queryLayers(rep, e.tr)
		snap := e.tr.durations(spSnapshot, noTag)
		rep.setPct("core.version.snapshot_us.p50", snap, 0.5)
		rep.setPct("core.version.snapshot_us.p99", snap, 0.99)
		rep.setPct("core.version.asof_execute_us.p50", e.tr.durations(spAsOfExecute, noTag), 0.5)
		rep.setPct("core.version.release_us.p50", e.tr.durations(spRelease, noTag), 0.5)
		rep.set("trace.overhead_pct", sm.overheadPct(), "%")
	}
	disk, err := diskBytes(dt.path)
	if err != nil {
		return nil, err
	}
	rep.set("disk_bytes_per_record", ratio(float64(disk), float64(tree.Count())), "B")

	err = e.phase(spVerify, func() error {
		for _, a := range aops {
			if a.err != nil || !oracle.matches(a.qi, a.lo, a.hi, a.agg) {
				o.failed++
				if len(o.problems) < 5 {
					o.problem("analyst query %d (as-of %v, prefix %d..%d): %+v err %v",
						a.qi, a.asOf, a.lo, a.hi, a.agg, a.err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Crash: the abandoned tree keeps its goroutines but can no longer
	// change the store; recovery reopens the files.
	heldID := held.ID()
	dt.store.crash()
	var rt *dctree.Tree
	var rstore dctree.Store
	err = e.phase(spRecovery, func() error {
		t0 := time.Now()
		var err error
		if rstore, err = dctree.OpenFileStore(dt.path, cfg.BlockSize, p.PoolBytes); err != nil {
			return err
		}
		if rt, err = dctree.Open(rstore, dctree.WithWAL(walPrefix(dt.path), dctree.WALOptions{})); err != nil {
			rstore.Close()
			return err
		}
		rep.set("recovery_s", time.Since(t0).Seconds(), "s")
		return nil
	})
	if err != nil {
		o.problem("recovery: %v", err)
		return o, nil
	}
	defer rstore.Close()
	defer rt.Close()
	rm := rt.Metrics()
	rep.set("core.recovery.replayed_records", float64(rm.RecoveryReplayedRecords), "count")
	rep.set("core.recovery.versions_rehydrated", float64(rm.VersionsRehydrated), "count")
	rep.set("core.recovery.versions_recaptured", float64(rm.SnapshotsRecovered), "count")
	err = e.phase(spVerify, func() error {
		if err := rt.Validate(); err != nil {
			o.problem("Validate after recovery: %v", err)
		}
		if got := rt.Count(); got != int64(len(live.recs)) {
			o.problem("recovered tree holds %d records, oracle %d", got, len(live.recs))
		}
		v, ok := rt.VersionByID(heldID)
		if !ok {
			o.problem("held version %d lost by recovery", heldID)
		}
		for qi, q := range qs {
			res, err := rt.Execute(context.Background(), dctree.QueryRequest{Query: q.mds})
			if err != nil || !sameAnswer(res.Agg, oracle.at(qi, len(ops))) {
				o.problem("recovered query %d: %+v err %v, oracle %+v", qi, res.Agg, err, oracle.at(qi, len(ops)))
			}
			if !ok {
				continue
			}
			res, err = rt.Execute(context.Background(), dctree.QueryRequest{Query: q.mds, AsOf: v})
			if err != nil || !sameAnswer(res.Agg, oracle.at(qi, 0)) {
				o.problem("recovered held version query %d: %+v err %v, oracle %+v", qi, res.Agg, err, oracle.at(qi, 0))
			}
		}
		return nil
	})
	return o, err
}

// asOfOp is one as-of analyst op: capture a version, answer query qi
// from it, release it.
func asOfOp(ctx context.Context, tree *dctree.Tree, qs []benchQuery, qi int, r *recorder, id uint64) analystOp {
	a := analystOp{qi: qi, asOf: true}
	q := qs[qi]
	root := r.begin(spOpAsOf, -1, id, uint8(q.kind))
	defer r.end(root)
	sp := r.begin(spSnapshot, root, id, noTag)
	v, err := tree.Snapshot()
	r.end(sp)
	if err != nil {
		a.err = err
		return a
	}
	sp = r.begin(spAsOfExecute, root, id, uint8(q.kind))
	res, qerr := tree.Execute(ctx, dctree.QueryRequest{Query: q.mds, AsOf: v})
	r.end(sp)
	sp = r.begin(spRelease, root, id, noTag)
	rerr := v.Release()
	r.end(sp)
	a.agg, a.err = res.Agg, errors.Join(qerr, rerr)
	return a
}

// buildDurableTree creates the tree in its own directory: bulk load and
// warm-up writes on the bare store, then a reopen with the log, after
// which every write is logged and group-committed.
func buildDurableTree(dir string, schema *dctree.Schema, cfg dctree.Config, base []dctree.Record, warm []writeOp, pool int) (durableTree, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return durableTree{}, err
	}
	path := filepath.Join(dir, "warehouse.dc")
	st, err := dctree.OpenFileStore(path, cfg.BlockSize, pool)
	if err != nil {
		return durableTree{}, err
	}
	tree, err := dctree.Open(st, dctree.WithSchema(schema), dctree.WithConfig(cfg))
	if err == nil {
		err = tree.BulkLoad(append([]dctree.Record(nil), base...))
	}
	if err == nil {
		err = applyWrites(tree, warm)
	}
	if err == nil {
		err = tree.Close()
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return durableTree{}, err
	}
	if st, err = dctree.OpenFileStore(path, cfg.BlockSize, pool); err != nil {
		return durableTree{}, err
	}
	cs := newCrashStore(st)
	if tree, err = dctree.Open(cs, dctree.WithWAL(walPrefix(path), dctree.WALOptions{})); err != nil {
		st.Close()
		return durableTree{}, err
	}
	return durableTree{store: cs, tree: tree, path: path}, nil
}

func walPrefix(storePath string) string { return storePath + ".log" }

// diskBytes is the store file plus every log segment.
func diskBytes(storePath string) (int64, error) {
	fi, err := os.Stat(storePath)
	if err != nil {
		return 0, err
	}
	n := fi.Size()
	segs, err := filepath.Glob(walPrefix(storePath) + ".*")
	if err != nil {
		return 0, err
	}
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			n += fi.Size()
		}
	}
	return n, nil
}

// crashStore passes every call through to a file store until crash; from
// then on it refuses every mutation, so a tree abandoned without Close can
// no longer change what recovery will find on disk. Reads keep working,
// including the zero-copy extent views of the mapped file.
type crashStore struct {
	dctree.Store
	viewer  storage.ExtentViewer
	crashed atomic.Bool
}

var errCrashed = errors.New("perfbench: store crashed")

func newCrashStore(s dctree.Store) *crashStore {
	v, _ := s.(storage.ExtentViewer)
	return &crashStore{Store: s, viewer: v}
}

func (c *crashStore) crash() { c.crashed.Store(true) }

func (c *crashStore) Alloc(blocks int) (storage.PageID, error) {
	if c.crashed.Load() {
		return 0, errCrashed
	}
	return c.Store.Alloc(blocks)
}

func (c *crashStore) Write(id storage.PageID, blocks int, data []byte) error {
	if c.crashed.Load() {
		return errCrashed
	}
	return c.Store.Write(id, blocks, data)
}

func (c *crashStore) Free(id storage.PageID, blocks int) error {
	if c.crashed.Load() {
		return errCrashed
	}
	return c.Store.Free(id, blocks)
}

func (c *crashStore) SetMeta(data []byte) error {
	if c.crashed.Load() {
		return errCrashed
	}
	return c.Store.SetMeta(data)
}

func (c *crashStore) Sync() error {
	if c.crashed.Load() {
		return errCrashed
	}
	return c.Store.Sync()
}

func (c *crashStore) ViewExtent(id storage.PageID) ([]byte, int, error) {
	if c.viewer == nil {
		return c.Store.Read(id)
	}
	return c.viewer.ViewExtent(id)
}

func (c *crashStore) ViewStats() storage.ViewStats {
	if c.viewer == nil {
		return storage.ViewStats{}
	}
	return c.viewer.ViewStats()
}

package main

import (
	"math"
	"reflect"
	"sync/atomic"
	"time"

	"github.com/dcindex/dctree"
)

// windowClock is the timed window. An untraced run measures it as one
// slice; a traced run splits it into four slices that alternate untraced
// and traced, so the op rates of the two kinds of slice give the tracing
// overhead on the same tree state, and allocation counts come from the
// untraced slices only.
type windowClock struct {
	start    time.Time
	slice    time.Duration
	slices   int
	traceRun bool
}

func newWindow(d time.Duration, traceRun bool) *windowClock {
	n := 1
	if traceRun {
		n = 4
	}
	return &windowClock{start: time.Now(), slice: d / time.Duration(n), slices: n, traceRun: traceRun}
}

func (w *windowClock) end() time.Time { return w.start.Add(w.slice * time.Duration(w.slices)) }

// sliceAt returns the slice holding instant t.
func (w *windowClock) sliceAt(t time.Time) int {
	i := int(t.Sub(w.start) / w.slice)
	if i < 0 {
		i = 0
	}
	if i >= w.slices {
		i = w.slices - 1
	}
	return i
}

// traced reports whether ops starting in slice i record spans.
func (w *windowClock) traced(i int) bool { return w.traceRun && i%2 == 1 }

// sliceMeter accumulates, per kind of slice, the ops completed, the time
// covered and the Go allocator's work.
type sliceMeter struct {
	ops    [2]int64 // [untraced, traced]
	secs   [2]float64
	allocs allocMeter // untraced slices only
}

// meter samples ops (a running total of completed client ops) and the
// allocator at every slice boundary of w, sleeping in between. It returns
// when the window ends.
func (w *windowClock) meter(ops *atomic.Int64) sliceMeter {
	var m sliceMeter
	prevOps, prevAlloc, prevT := ops.Load(), readAlloc(), w.start
	for i := 0; i < w.slices; i++ {
		time.Sleep(time.Until(w.start.Add(w.slice * time.Duration(i+1))))
		curOps, curAlloc, now := ops.Load(), readAlloc(), time.Now()
		k := 0
		if w.traced(i) {
			k = 1
		} else {
			d := curAlloc.sub(prevAlloc)
			m.allocs.mallocs += d.mallocs
			m.allocs.bytes += d.bytes
		}
		m.ops[k] += curOps - prevOps
		m.secs[k] += now.Sub(prevT).Seconds()
		prevOps, prevAlloc, prevT = curOps, curAlloc, now
	}
	return m
}

// overheadPct is the op-rate loss of traced slices against untraced ones.
func (m sliceMeter) overheadPct() float64 {
	u, t := ratio(float64(m.ops[0]), m.secs[0]), ratio(float64(m.ops[1]), m.secs[1])
	return 100 * ratio(u-t, u)
}

// counterDeltas turns the difference of two Tree.Metrics snapshots (and
// WAL stats) over the window into the per-layer counter metrics. writes
// and queries are the client ops the window issued, the bases of the
// per-op ratios.
func counterDeltas(rep metrics, a, b dctree.Metrics, wa, wb dctree.WALStats, writes, queries int64) {
	d := func(x, y int64) float64 { return float64(y - x) }
	perK := func(x float64) float64 { return 1000 * ratio(x, float64(writes)) }
	perQ := func(x float64) float64 { return ratio(x, float64(queries)) }

	rep.set("core.split.hierarchy_per_1k_writes", perK(d(a.SplitsHierarchy, b.SplitsHierarchy)), "count/1k")
	rep.set("core.split.forced_per_1k_writes", perK(d(a.SplitsForced, b.SplitsForced)), "count/1k")
	rep.set("core.supernode.created", d(a.SupernodesCreated, b.SupernodesCreated), "count")
	rep.set("core.supernode.grown", d(a.SupernodesGrown, b.SupernodesGrown), "count")

	scanned := d(a.QueryEntriesScanned, b.QueryEntriesScanned)
	rep.set("core.query.nodes_visited_per_query", perQ(d(a.QueryNodesVisited, b.QueryNodesVisited)), "count")
	rep.set("core.query.entries_scanned_per_query", perQ(scanned), "count")
	rep.set("core.query.entries_pruned_ratio", ratio(d(a.QueryEntriesPruned, b.QueryEntriesPruned), scanned), "ratio")
	rep.set("core.query.materialized_hits_per_query", perQ(d(a.QueryMaterializedHits, b.QueryMaterializedHits)), "count")
	rep.set("core.query.records_matched_per_query", perQ(d(a.QueryRecordsMatched, b.QueryRecordsMatched)), "count")

	hits, misses := d(a.CacheHits, b.CacheHits), d(a.CacheMisses, b.CacheMisses)
	rep.set("core.nodecache.hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.set("core.nodecache.misses", misses, "count")
	rep.set("core.nodecache.cached_nodes", float64(b.CachedNodes), "count")
	rep.set("storage.mmap.flat_node_reads_per_query", perQ(d(a.FlatNodeReads, b.FlatNodeReads)), "count")
	rep.set("storage.mmap.decode_fallbacks", d(a.DecodeFallbacks, b.DecodeFallbacks), "count")
	sh, sm := d(a.Store.Hits, b.Store.Hits), d(a.Store.Misses, b.Store.Misses)
	rep.set("storage.store.reads", d(a.Store.Reads, b.Store.Reads), "count")
	rep.set("storage.store.hit_ratio", ratio(sh, sh+sm), "ratio")

	rep.set("core.version.overlay_nodes", d(a.SnapshotOverlayNodes, b.SnapshotOverlayNodes), "count")
	rep.set("core.version.pruned", d(a.VersionsPruned, b.VersionsPruned), "count")

	rep.set("core.checkpoint.count", d(a.Checkpoints, b.Checkpoints), "count")
	rep.set("core.checkpoint.latency_ms.p50", float64(histDelta(a.CheckpointLatency, b.CheckpointLatency).Quantile(0.5))/1e6, "ms")
	rep.set("core.checkpoint.pages_written", d(a.CheckpointPagesWritten, b.CheckpointPagesWritten), "count")
	rep.set("core.checkpoint.bytes_written", d(a.CheckpointBytesWritten, b.CheckpointBytesWritten), "B")
	rep.set("core.checkpoint.writer_stall_ms", 1000*(b.CheckpointWriterStallSeconds-a.CheckpointWriterStallSeconds), "ms")
	rep.set("core.checkpoint.requeued_nodes", d(a.CheckpointRequeuedNodes, b.CheckpointRequeuedNodes), "count")

	appends := d(wa.Appends, wb.Appends)
	rep.set("storage.wal.appends", appends, "count")
	rep.set("storage.wal.fsyncs_per_write", ratio(d(wa.Syncs, wb.Syncs), float64(writes)), "ratio")
	rep.set("core.wal.group_commit_batch_mean", ratio(d(a.WALAppends, b.WALAppends), d(a.WALFsyncs, b.WALFsyncs)), "count")
	rep.set("storage.wal.bytes_per_record", ratio(d(wa.BytesStored, wb.BytesStored), appends), "B")
	rep.set("storage.wal.bytes_stored", d(wa.BytesStored, wb.BytesStored), "B")
}

// histDelta subtracts two snapshots of one cumulative histogram.
func histDelta(a, b dctree.HistogramSnapshot) dctree.HistogramSnapshot {
	before := map[float64]int64{}
	for _, bk := range a.Buckets {
		before[bk.Le] = bk.Count
	}
	out := dctree.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	var lastA int64 // a's count at the largest finite bound it kept
	for _, bk := range a.Buckets {
		if !math.IsInf(bk.Le, 1) {
			lastA = bk.Count
		}
	}
	for _, bk := range b.Buckets {
		prev, ok := before[bk.Le]
		if !ok {
			prev = lastA // a had no observation this large
			if math.IsInf(bk.Le, 1) {
				prev = a.Count
			}
		}
		bk.Count -= prev
		out.Buckets = append(out.Buckets, bk)
	}
	return out
}

// addMetricsDelta adds b − a to acc for every integer and float field of
// the Metrics struct, nested structs included, so that the windows of
// several trees can be summed. Histograms are skipped.
func addMetricsDelta(acc *dctree.Metrics, a, b dctree.Metrics) {
	addDelta(reflect.ValueOf(acc).Elem(), reflect.ValueOf(a), reflect.ValueOf(b))
}

func addDelta(acc, a, b reflect.Value) {
	switch acc.Kind() {
	case reflect.Int, reflect.Int64:
		acc.SetInt(acc.Int() + b.Int() - a.Int())
	case reflect.Uint64:
		acc.SetUint(acc.Uint() + b.Uint() - a.Uint())
	case reflect.Float64:
		acc.SetFloat(acc.Float() + b.Float() - a.Float())
	case reflect.Struct:
		for i := 0; i < acc.NumField(); i++ {
			addDelta(acc.Field(i), a.Field(i), b.Field(i))
		}
	}
}

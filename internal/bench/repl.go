package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/repl"
	"github.com/dcindex/dctree/internal/storage"
)

// ReplBenchResult is the JSON shape dcbench -replica emits: what log
// shipping costs the primary, how closely a filesystem-transport follower
// tracks it, and what a promotion pause looks like. Version 2 adds the
// synchronous-replication section (dcbench -replica -sync): the same
// storm with SyncReplication=1, every insert held until a follower
// acknowledged its LSN.
type ReplBenchResult struct {
	Version int `json:"version"`
	Records int `json:"records"`
	Workers int `json:"workers"`
	// BaselineInsertsPerSec is the primary's durable-insert throughput
	// with no follower attached.
	BaselineInsertsPerSec float64 `json:"baseline_inserts_per_sec"`
	// ReplicatedInsertsPerSec is the same workload while a follower tails
	// the WAL directory and the retention floor tracks its progress.
	ReplicatedInsertsPerSec float64 `json:"replicated_inserts_per_sec"`
	// PrimaryOverheadPct is the throughput cost of being shipped from
	// (positive = slower with the follower attached).
	PrimaryOverheadPct float64 `json:"primary_overhead_pct"`
	// MaxLagBytes is the largest source-bytes-behind the follower showed
	// while the insert storm ran (sampled every 10 ms).
	MaxLagBytes int64 `json:"max_lag_bytes"`
	// DrainMS is how long after the last acknowledged insert the follower
	// needed to reach the primary's final LSN.
	DrainMS float64 `json:"drain_ms"`
	// ApplyPerSec is the follower's record apply rate over the whole run
	// (records applied / time from first to last apply opportunity).
	ApplyPerSec float64 `json:"apply_per_sec"`
	// PromoteMS is the wall time of Promote() on the quiesced follower:
	// final drain, replica checkpoint, and reopening the mirror as a
	// read-write WAL.
	PromoteMS float64 `json:"promote_ms"`
	// Shipping volume over the replicated run.
	SegmentsShipped int64 `json:"segments_shipped"`
	BytesShipped    int64 `json:"bytes_shipped"`
	Resyncs         int64 `json:"resyncs"`
	// FollowerCheckpoints is how many replica checkpoints the follower
	// took while tailing (each bounds its restart replay).
	FollowerCheckpoints int64 `json:"follower_checkpoints"`

	// SyncReplication is the quorum size the sync section ran with (0 when
	// -sync was off and the section is absent).
	SyncReplication int `json:"sync_replication,omitempty"`
	// SyncInsertsPerSec is the primary's insert throughput with every
	// write held for a follower acknowledgment (in-process transport).
	SyncInsertsPerSec float64 `json:"sync_inserts_per_sec,omitempty"`
	// SyncOverheadPct is the throughput cost of synchronous acknowledgment
	// versus the async replicated run.
	SyncOverheadPct float64 `json:"sync_overhead_pct,omitempty"`
	// SyncDegraded counts writes acknowledged on local durability alone
	// because the quorum wait timed out (0 = every ack was real).
	SyncDegraded int64 `json:"sync_degraded"`
}

// replInsert drives the records through durable inserts from `workers`
// goroutines and returns the elapsed wall time.
func replInsert(tree *core.Tree, recs []cube.Record, workers int) (time.Duration, error) {
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += workers {
				if err := tree.Insert(recs[i]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("insert %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start), firstErr
}

// ReplBench measures log-shipping replication end to end on the
// filesystem transport: a baseline insert storm with no follower, the
// same storm with a follower tailing (lag sampled as it runs), the
// post-quiesce drain, and a promotion. With sync true a third storm runs
// under SyncReplication=1 on the in-process transport (the only cheap
// ack channel), reporting what quorum acknowledgment costs on top of
// async shipping. dir == "" uses a temp directory.
func ReplBench(opt Options, n, workers int, dir string, syncRun bool) (*ReplBenchResult, error) {
	if dir == "" {
		d, err := os.MkdirTemp("", "dcreplbench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	cfg := opt.DCConfig
	wopts := storage.WALOptions{SegmentBytes: 256 << 10}

	build := func(sub string, cfg core.Config) (*core.Tree, []cube.Record, error) {
		schema, recs, err := walBenchSchema(n)
		if err != nil {
			return nil, nil, err
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, err
		}
		tree, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
			filepath.Join(dir, sub, "wal"), wopts)
		if err != nil {
			return nil, nil, err
		}
		return tree, recs, nil
	}

	res := &ReplBenchResult{Version: 2, Records: n, Workers: workers}

	// Baseline: no follower.
	base, recs, err := build("base", cfg)
	if err != nil {
		return nil, err
	}
	elapsed, err := replInsert(base, recs, workers)
	if err != nil {
		return nil, err
	}
	res.BaselineInsertsPerSec = float64(n) / elapsed.Seconds()
	if err := base.Close(); err != nil {
		return nil, err
	}

	// Replicated: follower tails the WAL directory while the storm runs.
	prim, recs, err := build("prim", cfg)
	if err != nil {
		return nil, err
	}
	primPrefix := filepath.Join(dir, "prim", "wal")
	prim.WAL().SetRetainLSN(0)
	if err := repl.WriteSchema(primPrefix, prim); err != nil {
		return nil, err
	}
	f, err := repl.NewFollower(&repl.DirSource{Prefix: primPrefix}, repl.FollowerOptions{
		Dir:             filepath.Join(dir, "fol"),
		Config:          cfg,
		Poll:            2 * time.Millisecond,
		CheckpointEvery: 100 * time.Millisecond,
		WAL:             wopts,
	})
	if err != nil {
		return nil, err
	}

	stopSample := make(chan struct{})
	var sampleDone sync.WaitGroup
	sampleDone.Add(1)
	go func() {
		defer sampleDone.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
				m := f.Metrics()
				if m.LagBytes > res.MaxLagBytes {
					res.MaxLagBytes = m.LagBytes
				}
				prim.WAL().SetRetainLSN(m.MirroredLSN)
			}
		}
	}()

	applyStart := time.Now()
	elapsed, err = replInsert(prim, recs, workers)
	if err != nil {
		return nil, err
	}
	res.ReplicatedInsertsPerSec = float64(n) / elapsed.Seconds()
	res.PrimaryOverheadPct = 100 * (res.BaselineInsertsPerSec - res.ReplicatedInsertsPerSec) /
		res.BaselineInsertsPerSec

	// Drain: time from quiesce to full catch-up.
	tip := prim.WAL().LastLSN()
	drainStart := time.Now()
	for f.AppliedLSN() < tip {
		if err := f.Err(); err != nil {
			close(stopSample)
			sampleDone.Wait()
			return nil, fmt.Errorf("follower: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	res.DrainMS = float64(time.Since(drainStart).Microseconds()) / 1000
	close(stopSample)
	sampleDone.Wait()

	fm := f.Metrics()
	res.SegmentsShipped = fm.SegmentsShipped
	res.BytesShipped = fm.BytesShipped
	res.Resyncs = fm.Resyncs
	res.FollowerCheckpoints = fm.Checkpoints
	res.ApplyPerSec = float64(fm.RecordsApplied) / time.Since(applyStart).Seconds()

	if got, want := f.Tree().Count(), prim.Count(); got != want {
		return nil, fmt.Errorf("replica count %d != primary %d", got, want)
	}

	// Promotion: the primary is simply abandoned (kill -9 semantics).
	promoteStart := time.Now()
	rw, err := f.Promote()
	if err != nil {
		return nil, err
	}
	res.PromoteMS = float64(time.Since(promoteStart).Microseconds()) / 1000
	if got, want := rw.Count(), prim.Count(); got != want {
		return nil, fmt.Errorf("promoted count %d != primary %d", got, want)
	}
	if err := rw.Close(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if !syncRun {
		return res, nil
	}

	// Synchronous: the same storm, every insert held until the follower
	// acknowledges its LSN. The in-process transport is the ack channel
	// (DirSource carries none), so the overhead measured is the quorum
	// round-trip itself, not transport noise.
	scfg := cfg
	scfg.SyncReplication = 1
	res.SyncReplication = 1
	sprim, srecs, err := build("sync", scfg)
	if err != nil {
		return nil, err
	}
	sf, err := repl.NewFollower(&repl.WALSource{Tree: sprim}, repl.FollowerOptions{
		Dir:             filepath.Join(dir, "syncfol"),
		ID:              "bench-sync",
		Config:          scfg,
		Poll:            time.Millisecond,
		CheckpointEvery: 100 * time.Millisecond,
		WAL:             wopts,
	})
	if err != nil {
		return nil, err
	}
	elapsed, err = replInsert(sprim, srecs, workers)
	if err != nil {
		return nil, err
	}
	res.SyncInsertsPerSec = float64(n) / elapsed.Seconds()
	res.SyncOverheadPct = 100 * (res.ReplicatedInsertsPerSec - res.SyncInsertsPerSec) /
		res.ReplicatedInsertsPerSec
	res.SyncDegraded = sprim.Metrics().ReplSyncDegraded
	if err := sf.Close(); err != nil {
		return nil, err
	}
	return res, sprim.Close()
}

// walBenchSchema builds a deliberately small cube (one two-level
// dimension, one measure): the benchmark's subject is the commit and
// shipping path, so the tree work per insert is kept light to not drown
// the signal in MDS arithmetic. Records get unique leaf values in blocks
// of 64 under one parent.
func walBenchSchema(n int) (*cube.Schema, []cube.Record, error) {
	h, err := hierarchy.New("K", "Leaf", "Top")
	if err != nil {
		return nil, nil, err
	}
	schema, err := cube.NewSchema([]*hierarchy.Hierarchy{h}, "V")
	if err != nil {
		return nil, nil, err
	}
	recs := make([]cube.Record, n)
	for i := range recs {
		recs[i], err = schema.InternRecord(
			[][]string{{fmt.Sprintf("T%d", i/64), fmt.Sprintf("L%d", i)}},
			[]float64{float64(i)},
		)
		if err != nil {
			return nil, nil, err
		}
	}
	return schema, recs, nil
}

package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/storage"
)

// This file wires the storage-layer WAL into the tree's write path.
//
// Durability contract of a WAL-backed tree (NewDurable/OpenDurable):
// when Insert or Delete returns nil, the mutation's logical record is on
// stable storage and survives a crash — either inside the WAL tail, to be
// replayed by OpenDurable, or inside a checkpoint (Flush) that superseded
// it. The record is appended under the tree write lock AFTER the in-memory
// mutation succeeds, so the append order equals the mutation order and
// only acknowledged-able mutations are logged; the caller then blocks
// OUTSIDE the lock until the group committer's next fsync covers its LSN.
//
// Checkpoints: Flush persists the full tree with shadow paging, stamps the
// WAL's last LSN into the metadata blob as the checkpoint LSN, and then
// truncates the log. Recovery replays only records with LSN strictly
// greater than the checkpoint LSN, so a crash BETWEEN the durable metadata
// swap and the truncation is safe: the leftover records replay as no-ops
// filtered by LSN, not as double-applied mutations.
//
// Record formats. Dictionary registrations are only durable at checkpoint
// time, so a replayed record may mention values the reopened dictionaries
// have never seen. The two formats resolve that differently:
//
//   - v2 (the only format written): new-value registrations are logged
//     as separate walOpDictDelta records — framed ahead of the mutation
//     record that first needs them, inside the same tree-lock critical
//     section, so the delta's LSN is always lower and a torn tail can
//     never keep a mutation without its delta. Mutation records then carry
//     only the interned leaf IDs. Recovery replays deltas into the
//     reopened dictionaries (idempotently: a fuzzy checkpoint may already
//     carry a registration whose delta is past the checkpoint LSN) before
//     re-validating mutations.
//   - v1 (read-only legacy, written by older builds): every mutation
//     record re-spells the per-dimension top-down *string* paths;
//     re-interning through Schema.InternRecord re-registers them exactly
//     as the original insert did.
//
// Decoding dispatches on the op byte, so logs freely mix formats: a tree
// whose log tail an older build wrote in v1 replays it, then logs v2.

// walOp discriminates logical WAL records.
const (
	walOpInsert    byte = 1 // v1 insert: string paths
	walOpDelete    byte = 2 // v1 delete: string paths
	walOpDictDelta byte = 3 // dictionary registration delta batch
	walOpInsertV2  byte = 4 // v2 insert: interned leaf IDs
	walOpDeleteV2  byte = 5 // v2 delete: interned leaf IDs
	walOpVersion   byte = 6 // MVCC snapshot marker: version ID at this LSN
	// walOpVersionRelease marks a version's release at this LSN. Recovery
	// and replicas release the named version if it is live; without the
	// record, a version released after the last checkpoint would rehydrate
	// from the checkpoint's manifest (meta v8) and resurrect on reopen.
	walOpVersionRelease byte = 7
)

// dictDelta is one observed dictionary registration awaiting its WAL
// record: value name under parent received id in dimension dim.
type dictDelta struct {
	dim    int
	id     hierarchy.ID
	parent hierarchy.ID
	name   string
}

// ErrWALRejected is returned by NewDurable when the WAL already holds
// records: creating a fresh tree over a log tail would silently discard
// recoverable mutations — use OpenDurable instead.
var ErrWALRejected = errors.New("dctree: wal holds unreplayed records")

// ErrFenced is the fencing violation: a replication peer presented an
// epoch older than the local one. A follower returns it from
// ApplyReplicated when a deposed primary keeps shipping records minted
// before the promotion; a primary's write path is poisoned with it when a
// follower acknowledgment reveals a higher epoch — the primary has been
// deposed, and acknowledging further writes would lose them on failover.
// Like an fsync failure it is sticky: the poisoned tree stays queryable
// but rejects mutations until reopened.
var ErrFenced = errors.New("dctree: replication epoch fenced (peer was promoted)")

// walState runs group commit for one tree's WAL: appenders (holding the
// tree write lock) register their appended LSN, a committer goroutine
// batches all registrations inside a CommitInterval window (closed early
// at CommitBytes pending payload) into one fsync, and acknowledgment
// waiters block outside the tree lock until the durable frontier covers
// their LSN. With a negative CommitInterval there is no committer: every
// append fsyncs inline.
type walState struct {
	w        *storage.WAL
	interval time.Duration
	bytes    int64
	m        *treeMetrics

	// Synchronous replication (Config.SyncReplication): when syncAcks > 0,
	// waitDurable additionally blocks until replLSN — the syncAcks-th
	// highest follower-confirmed LSN — covers the write, or syncTimeout
	// expires and the write degrades to asynchronous acknowledgment.
	syncAcks    int
	syncTimeout time.Duration

	mu sync.Mutex
	// Two condition variables on one mutex keep the wakeups targeted: an
	// append signals only the committer; a finished batch broadcasts only
	// to acknowledgment waiters. A single shared cond would wake every
	// blocked appender on every append — a thundering herd that dominates
	// the commit path's cost at high fan-in.
	commitCond *sync.Cond // committer waits here for pending appends
	ackCond    *sync.Cond // waitDurable blocks here for the frontier
	durableLSN uint64     // highest LSN known durable (fsync or checkpoint)
	pendingLSN uint64     // highest appended LSN
	pendingB   int64      // payload bytes appended since the last batch closed
	err        error      // sticky: a failed fsync poisons the write path
	closing    bool
	done       chan struct{}
	// Follower acknowledgment registry: the highest LSN each follower has
	// confirmed durable on its side. The minimum is the log retention
	// floor (a truncation past it would strand the slowest follower); the
	// syncAcks-th highest is replLSN, the quorum-confirmed frontier
	// synchronous writes wait on.
	followers map[string]uint64
	replLSN   uint64
}

func newWALState(w *storage.WAL, cfg *Config, m *treeMetrics) *walState {
	ws := &walState{
		w:           w,
		interval:    cfg.CommitInterval,
		bytes:       int64(cfg.CommitBytes),
		m:           m,
		syncAcks:    cfg.SyncReplication,
		syncTimeout: cfg.SyncReplicationTimeout,
		followers:   make(map[string]uint64),
		done:        make(chan struct{}),
	}
	ws.commitCond = sync.NewCond(&ws.mu)
	ws.ackCond = sync.NewCond(&ws.mu)
	ws.durableLSN = w.SyncedLSN()
	ws.pendingLSN = w.LastLSN()
	if ws.interval >= 0 {
		go ws.run()
	} else {
		close(ws.done)
	}
	return ws
}

// append writes one logical record and registers it for the next commit
// batch. Called with the tree write lock held — it must not block on disk
// in group-commit mode (the fsync happens on the committer goroutine).
func (ws *walState) append(payload []byte) (uint64, error) {
	ws.mu.Lock()
	if err := ws.err; err != nil {
		ws.mu.Unlock()
		return 0, err
	}
	ws.mu.Unlock()

	lsn, err := ws.w.Append(payload)
	if err != nil {
		return 0, err
	}
	ws.m.walAppends.Inc()

	if ws.interval < 0 {
		// Naive mode: one fsync per append, inline.
		covered, err := ws.w.Sync()
		if err != nil {
			ws.poison(err)
			return 0, err
		}
		ws.m.walFsyncs.Inc()
		ws.m.walBatches.Inc()
		ws.m.walBatchRecords.Inc()
		// Every naive-mode batch is exactly one record; the max-batch gauge
		// must say so rather than sit at its zero value precisely in the one
		// mode where the batch size is known a priori.
		if ws.m.walBatchMax.Load() < 1 {
			ws.m.walBatchMax.Set(1)
		}
		ws.noteDurable(covered)
		return lsn, nil
	}

	ws.mu.Lock()
	if lsn > ws.pendingLSN {
		ws.pendingLSN = lsn
	}
	ws.pendingB += int64(len(payload))
	ws.commitCond.Signal() // wake the committer
	ws.mu.Unlock()
	return lsn, nil
}

// waitDurable blocks until lsn is durable (or the write path is
// poisoned). Called WITHOUT the tree lock, so concurrent mutators keep
// filling the current batch while earlier callers wait on it. Under
// synchronous replication (syncAcks > 0) it then also waits for the
// quorum frontier to cover lsn; if syncTimeout expires first the write is
// acknowledged on local durability alone and the degradation is counted —
// a dead follower slows the primary down to the timeout, never to a halt.
func (ws *walState) waitDurable(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for ws.durableLSN < lsn && ws.err == nil {
		if ws.closing {
			return ErrClosed
		}
		ws.ackCond.Wait()
	}
	if ws.err != nil || ws.syncAcks <= 0 || ws.replLSN >= lsn {
		return ws.err
	}
	// Quorum wait. sync.Cond has no timed wait, so a one-shot timer flips
	// a per-waiter flag and broadcasts; the loop re-checks it on wakeup.
	timedOut := false
	timer := time.AfterFunc(ws.syncTimeout, func() {
		ws.mu.Lock()
		timedOut = true
		ws.ackCond.Broadcast()
		ws.mu.Unlock()
	})
	defer timer.Stop()
	for ws.replLSN < lsn && ws.err == nil && !ws.closing && !timedOut {
		ws.ackCond.Wait()
	}
	if ws.err != nil {
		return ws.err
	}
	if ws.replLSN < lsn {
		// Timed out (or the tree is closing): the record is durable locally
		// but unconfirmed by the quorum. Degrade to async rather than fail
		// a write that recovery would replay anyway.
		ws.m.replSyncDegraded.Inc()
	}
	return nil
}

// observeAck records one follower's confirmation that it has durably
// applied the log through lsn, and returns the new retention floor (the
// slowest follower's frontier) for the caller to push into the WAL. The
// quorum frontier advances to the syncAcks-th highest confirmed LSN,
// waking synchronous writers it now covers.
func (ws *walState) observeAck(follower string, lsn uint64) uint64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if lsn > ws.followers[follower] {
		ws.followers[follower] = lsn
	}
	floor := ^uint64(0)
	for _, l := range ws.followers {
		if l < floor {
			floor = l
		}
	}
	if ws.syncAcks > 0 && len(ws.followers) >= ws.syncAcks {
		acked := make([]uint64, 0, len(ws.followers))
		for _, l := range ws.followers {
			acked = append(acked, l)
		}
		sort.Slice(acked, func(i, j int) bool { return acked[i] > acked[j] })
		if fr := acked[ws.syncAcks-1]; fr > ws.replLSN {
			ws.replLSN = fr
			ws.ackCond.Broadcast()
		}
	}
	return floor
}

// run is the group committer: wait for pending appends, let the batch
// window fill, fsync once, publish the new durable frontier.
func (ws *walState) run() {
	defer close(ws.done)
	for {
		ws.mu.Lock()
		for ws.pendingLSN <= ws.durableLSN && !ws.closing && ws.err == nil {
			ws.commitCond.Wait()
		}
		if ws.err != nil || (ws.closing && ws.pendingLSN <= ws.durableLSN) {
			ws.mu.Unlock()
			return
		}
		fill := !ws.closing && ws.pendingB < ws.bytes
		ws.mu.Unlock()

		if fill && ws.interval > 0 {
			time.Sleep(ws.interval)
		}

		ws.mu.Lock()
		prev := ws.durableLSN
		ws.pendingB = 0
		ws.mu.Unlock()

		covered, err := ws.w.Sync()
		if err != nil {
			ws.poison(err)
			return
		}
		ws.m.walFsyncs.Inc()
		batch := int64(covered) - int64(prev)
		if batch > 0 {
			ws.m.walBatches.Inc()
			ws.m.walBatchRecords.Add(batch)
			if batch > ws.m.walBatchMax.Load() {
				ws.m.walBatchMax.Set(batch)
			}
		}
		ws.noteDurable(covered)
	}
}

// noteDurable advances the durable frontier and wakes acknowledgment
// waiters.
func (ws *walState) noteDurable(lsn uint64) {
	ws.mu.Lock()
	if lsn > ws.durableLSN {
		ws.durableLSN = lsn
	}
	ws.ackCond.Broadcast()
	ws.mu.Unlock()
}

// poison records a write-path failure; every waiter and later append sees
// it. Durability can no longer be promised, so the tree stays read-only
// in practice until reopened.
func (ws *walState) poison(err error) {
	ws.mu.Lock()
	if ws.err == nil {
		ws.err = err
	}
	ws.commitCond.Signal()
	ws.ackCond.Broadcast()
	ws.mu.Unlock()
}

// checkpointDone is called by a checkpoint install after the durable
// metadata swap superseded the log up to lsn: everything there is durable
// via the checkpoint, so waiters on those records unblock even though
// their fsync never happened.
func (ws *walState) checkpointDone(lsn uint64) {
	ws.mu.Lock()
	if lsn > ws.durableLSN {
		ws.durableLSN = lsn
	}
	ws.pendingB = 0
	ws.ackCond.Broadcast()
	ws.mu.Unlock()
}

// shutdown stops the committer (flushing any pending batch) and closes
// the log files.
func (ws *walState) shutdown() error {
	ws.mu.Lock()
	ws.closing = true
	ws.commitCond.Signal()
	ws.ackCond.Broadcast()
	ws.mu.Unlock()
	<-ws.done
	return ws.w.Close()
}

// ErrClosed is returned by operations on a closed tree.
var ErrClosed = errors.New("dctree: tree is closed")

// encodeWALRecordV2 serializes one logical mutation in the compact format:
// op byte, measures, then one interned leaf ID per dimension. The IDs are
// meaningful because every registration they depend on is either in the
// last checkpoint's dictionaries or in a walOpDictDelta record with a
// lower LSN.
func encodeWALRecordV2(op byte, rec cube.Record) []byte {
	if op == walOpInsert {
		op = walOpInsertV2
	} else {
		op = walOpDeleteV2
	}
	buf := make([]byte, 0, 4+9*len(rec.Measures)+5*len(rec.Coords))
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Measures)))
	for _, m := range rec.Measures {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Coords)))
	for _, c := range rec.Coords {
		buf = binary.AppendUvarint(buf, uint64(uint32(c)))
	}
	return buf
}

// encodeDictDelta serializes a batch of dictionary registrations: op byte,
// entry count, then per entry the dimension, the minted ID, its parent and
// the value name.
func encodeDictDelta(deltas []dictDelta) []byte {
	buf := []byte{walOpDictDelta}
	buf = binary.AppendUvarint(buf, uint64(len(deltas)))
	for _, d := range deltas {
		buf = binary.AppendUvarint(buf, uint64(d.dim))
		buf = binary.AppendUvarint(buf, uint64(uint32(d.id)))
		buf = binary.AppendUvarint(buf, uint64(uint32(d.parent)))
		buf = binary.AppendUvarint(buf, uint64(len(d.name)))
		buf = append(buf, d.name...)
	}
	return buf
}

// applyDictDelta replays one walOpDictDelta payload into the schema's
// dictionaries. Idempotent for registrations a fuzzy checkpoint already
// captured; any other disagreement between log and dictionaries (or any
// malformed byte) fails closed with ErrCorrupt.
func applyDictDelta(schema *cube.Schema, payload []byte) error {
	r := metaReader{buf: payload}
	if r.byte() != walOpDictDelta {
		return fmt.Errorf("%w: not a dict delta record", ErrCorrupt)
	}
	count := r.uvarint()
	if r.err != nil || count > uint64(len(payload)) {
		return fmt.Errorf("%w: dict delta count", ErrCorrupt)
	}
	for i := uint64(0); i < count; i++ {
		dim := r.uvarint()
		id := r.uvarint()
		parent := r.uvarint()
		name := r.string()
		if r.err != nil {
			return fmt.Errorf("%w: dict delta entry %d: %v", ErrCorrupt, i, r.err)
		}
		if dim >= uint64(schema.Dims()) || id > math.MaxUint32 || parent > math.MaxUint32 {
			return fmt.Errorf("%w: dict delta entry %d out of range", ErrCorrupt, i)
		}
		h, err := schema.Dim(int(dim))
		if err != nil {
			return fmt.Errorf("%w: dict delta entry %d: %v", ErrCorrupt, i, err)
		}
		if err := h.RestoreValue(hierarchy.ID(id), hierarchy.ID(parent), name); err != nil {
			return fmt.Errorf("%w: dict delta entry %d: %v", ErrCorrupt, i, err)
		}
	}
	if r.off != len(payload) {
		return fmt.Errorf("%w: dict delta trailing bytes", ErrCorrupt)
	}
	return nil
}

// decodeWALRecord parses a logical mutation record of either format,
// returning the canonical v1 op. v1 records re-intern through the schema
// (re-registering any dictionary values the checkpoint predates); v2
// records resolve their IDs against dictionaries that the checkpoint plus
// the preceding dict deltas have already rebuilt.
func decodeWALRecord(schema *cube.Schema, payload []byte) (byte, cube.Record, error) {
	if len(payload) < 1 {
		return 0, cube.Record{}, fmt.Errorf("%w: empty wal record", ErrCorrupt)
	}
	switch payload[0] {
	case walOpInsert, walOpDelete:
		return decodeWALRecordV1(schema, payload)
	case walOpInsertV2, walOpDeleteV2:
		return decodeWALRecordV2(schema, payload)
	default:
		return 0, cube.Record{}, fmt.Errorf("%w: wal record op %d", ErrCorrupt, payload[0])
	}
}

func decodeWALRecordV2(schema *cube.Schema, payload []byte) (byte, cube.Record, error) {
	r := metaReader{buf: payload}
	op := walOpInsert
	if r.byte() == walOpDeleteV2 {
		op = walOpDelete
	}
	nm := int(r.uvarint())
	if r.err != nil || nm != schema.Measures() {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record measures", ErrCorrupt)
	}
	measures := make([]float64, nm)
	for j := range measures {
		measures[j] = r.float64()
	}
	nd := int(r.uvarint())
	if r.err != nil || nd != schema.Dims() {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record dims", ErrCorrupt)
	}
	coords := make([]hierarchy.ID, nd)
	for d := range coords {
		v := r.uvarint()
		if v > math.MaxUint32 {
			return 0, cube.Record{}, fmt.Errorf("%w: wal record dim %d id", ErrCorrupt, d)
		}
		coords[d] = hierarchy.ID(v)
	}
	if r.err != nil {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record: %v", ErrCorrupt, r.err)
	}
	rec := cube.Record{Coords: coords, Measures: measures}
	// The IDs must already be registered leaves: either the checkpoint's
	// dictionaries or a preceding dict delta carried them. An unknown ID
	// means the log lost a delta — corruption, not a recoverable state.
	if err := schema.ValidateRecord(rec); err != nil {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record ids: %v", ErrCorrupt, err)
	}
	return op, rec, nil
}

func decodeWALRecordV1(schema *cube.Schema, payload []byte) (byte, cube.Record, error) {
	r := metaReader{buf: payload}
	op := r.byte()
	nm := int(r.uvarint())
	if r.err != nil || nm != schema.Measures() {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record measures", ErrCorrupt)
	}
	measures := make([]float64, nm)
	for j := range measures {
		measures[j] = r.float64()
	}
	nd := int(r.uvarint())
	if r.err != nil || nd != schema.Dims() {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record dims", ErrCorrupt)
	}
	paths := make([][]string, nd)
	for d := range paths {
		depth := int(r.uvarint())
		if r.err != nil || depth < 1 || depth > 64 {
			return 0, cube.Record{}, fmt.Errorf("%w: wal record dim %d depth", ErrCorrupt, d)
		}
		path := make([]string, depth)
		for l := range path {
			path[l] = r.string()
		}
		paths[d] = path
	}
	if r.err != nil {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record: %v", ErrCorrupt, r.err)
	}
	rec, err := schema.InternRecord(paths, measures)
	if err != nil {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record intern: %v", ErrCorrupt, err)
	}
	return op, rec, nil
}

// encodeVersionRecord serializes an MVCC snapshot marker: the record's LSN
// is the snapshot point, and the payload names the version it defines.
func encodeVersionRecord(versionID uint64) []byte {
	buf := []byte{walOpVersion}
	return binary.AppendUvarint(buf, versionID)
}

// decodeVersionRecord parses a walOpVersion payload.
func decodeVersionRecord(payload []byte) (uint64, error) {
	r := metaReader{buf: payload}
	if r.byte() != walOpVersion {
		return 0, fmt.Errorf("%w: not a version record", ErrCorrupt)
	}
	id := r.uvarint()
	if r.err != nil || id == 0 || r.off != len(payload) {
		return 0, fmt.Errorf("%w: version record", ErrCorrupt)
	}
	return id, nil
}

// encodeVersionReleaseRecord serializes an MVCC release marker: the named
// version is no longer live from this LSN on.
func encodeVersionReleaseRecord(versionID uint64) []byte {
	buf := []byte{walOpVersionRelease}
	return binary.AppendUvarint(buf, versionID)
}

// decodeVersionReleaseRecord parses a walOpVersionRelease payload.
func decodeVersionReleaseRecord(payload []byte) (uint64, error) {
	r := metaReader{buf: payload}
	if r.byte() != walOpVersionRelease {
		return 0, fmt.Errorf("%w: not a version release record", ErrCorrupt)
	}
	id := r.uvarint()
	if r.err != nil || id == 0 || r.off != len(payload) {
		return 0, fmt.Errorf("%w: version release record", ErrCorrupt)
	}
	return id, nil
}

// installDictHooks arms the per-dimension registration hooks that feed
// dictionary deltas into dictPending. Called on a durable tree AFTER the
// initial checkpoint (NewDurable) or recovery (OpenDurable), whose own
// registrations need no deltas: the former persists the dictionaries in
// meta, the latter's source records stay in the log until a checkpoint
// supersedes them.
func (t *Tree) installDictHooks() {
	for d := 0; d < t.schema.Dims(); d++ {
		h, err := t.schema.Dim(d)
		if err != nil {
			continue
		}
		dim := d
		h.SetRegisterHook(func(id, parent hierarchy.ID, name string) {
			t.dictMu.Lock()
			t.dictPending = append(t.dictPending, dictDelta{dim: dim, id: id, parent: parent, name: name})
			t.dictMu.Unlock()
		})
	}
}

// logMutation appends the logical record for an applied mutation — preceded
// by a dict delta record for any registrations observed since the last
// mutation. Called under the tree write lock, after the in-memory
// mutation succeeded, so the delta's LSN is strictly below the mutation's
// and no later mutation can slip between them. Returns the LSN to wait on
// (0 when the tree has no WAL).
func (t *Tree) logMutation(op byte, rec cube.Record) (uint64, error) {
	if t.wal == nil {
		return 0, nil
	}
	t.dictMu.Lock()
	deltas := t.dictPending
	t.dictPending = nil
	t.dictMu.Unlock()
	if len(deltas) > 0 {
		if _, err := t.wal.append(encodeDictDelta(deltas)); err != nil {
			return 0, err
		}
		t.metrics.walDictDeltas.Add(int64(len(deltas)))
	}
	return t.wal.append(encodeWALRecordV2(op, rec))
}

// waitDurable blocks until the given LSN is durable. No-op for trees
// without a WAL.
func (t *Tree) waitDurable(lsn uint64) error {
	if t.wal == nil {
		return nil
	}
	return t.wal.waitDurable(lsn)
}

// NewDurable creates an empty WAL-backed DC-tree: the write-ahead log at
// walPrefix protects every acknowledged mutation, and the group-commit
// knobs come from cfg (CommitInterval/CommitBytes). The WAL must be empty;
// a log with records belongs to an existing tree and must go through
// OpenDurable, or its recoverable mutations would be silently discarded.
func NewDurable(store storage.Store, schema *cube.Schema, cfg Config, walPrefix string) (*Tree, error) {
	return NewDurableOpts(store, schema, cfg, walPrefix, storage.WALOptions{})
}

// NewDurableOpts is NewDurable with explicit WAL options (segment size,
// and the benchmarks' modeled sync delay).
func NewDurableOpts(store storage.Store, schema *cube.Schema, cfg Config, walPrefix string, wopts storage.WALOptions) (*Tree, error) {
	t, err := New(store, schema, cfg)
	if err != nil {
		return nil, err
	}
	w, err := storage.OpenWAL(walPrefix, wopts)
	if err != nil {
		return nil, err
	}
	if w.Records() > 0 {
		w.Close()
		return nil, ErrWALRejected
	}
	// Fresh durable trees start at epoch 1 (0 is reserved for pre-fencing
	// trees, which nothing ever fences). The empty first segment is
	// restamped so the log agrees with the meta from the first record on.
	t.epoch = 1
	if e := w.Epoch(); e > t.epoch {
		t.epoch = e // reattached to a pre-epoched (empty) log
	}
	w.SetEpoch(t.epoch)
	t.checkpointLSN = w.LastLSN()
	// Initial checkpoint: the store must hold valid (empty-tree) metadata
	// before the first log record is acknowledged, or a crash before the
	// first Flush would leave a log tail with no tree to replay it into.
	if err := t.Flush(); err != nil {
		w.Close()
		return nil, err
	}
	// Hooks arm only now: the pre-existing dictionary contents (if the
	// schema was pre-registered) are already durable in the checkpoint.
	t.installDictHooks()
	t.wal = newWALState(w, &t.cfg, &t.metrics)
	t.startCheckpointer()
	return t, nil
}

// OpenDurable reopens a WAL-backed tree: the last checkpoint is loaded
// from the store, then every log record past the checkpoint LSN is
// replayed through the normal insert/delete path, rebuilding MDSs,
// materialized aggregates and split history exactly as the lost process
// built them. The replayed state is in memory (and still covered by the
// log); the next Flush checkpoints it.
func OpenDurable(store storage.Store, walPrefix string) (*Tree, error) {
	return OpenDurableOpts(store, walPrefix, storage.WALOptions{})
}

// OpenDurableOpts is OpenDurable with explicit WAL options. Reopening is
// where the write-side knobs (segment size, recycle pool) must be
// re-passed to stay in effect; reading the log never depends on them.
func OpenDurableOpts(store storage.Store, walPrefix string, wopts storage.WALOptions) (*Tree, error) {
	t, err := Open(store)
	if err != nil {
		return nil, err
	}
	w, err := storage.OpenWAL(walPrefix, wopts)
	if err != nil {
		return nil, err
	}
	// Reconcile the fencing epoch: the meta blob and the WAL segment
	// headers each carry it durably, and either can be ahead (a promotion
	// rotates the log before the next checkpoint rewrites the meta; a
	// checkpoint can survive a log truncated by retention). The truth is
	// the maximum, pushed back down into the WAL so new segments carry it.
	if e := w.Epoch(); e > t.epoch {
		t.epoch = e
	}
	w.SetEpoch(t.epoch)
	if err := t.recoverFrom(w); err != nil {
		w.Close()
		return nil, err
	}
	// Hooks arm only after recovery: replayed registrations come from
	// records still in the log (or deltas already there), so logging them
	// again would be redundant.
	t.installDictHooks()
	t.wal = newWALState(w, &t.cfg, &t.metrics)
	t.startCheckpointer()
	return t, nil
}

// recoverFrom replays the WAL tail past the tree's checkpoint LSN:
// dictionary deltas rebuild the registrations first (their LSNs precede
// every mutation that needs them), then mutations re-apply through the
// normal insert/delete path. recoveryReplayed counts mutations only —
// deltas are bookkeeping, not replayed updates.
func (t *Tree) recoverFrom(w *storage.WAL) error {
	return w.Replay(func(lsn uint64, payload []byte) error {
		if lsn <= t.checkpointLSN {
			return nil // superseded by the checkpoint
		}
		if len(payload) > 0 && payload[0] == walOpDictDelta {
			if err := applyDictDelta(t.schema, payload); err != nil {
				return fmt.Errorf("dctree: replaying dict delta lsn %d: %w", lsn, err)
			}
			return nil
		}
		if len(payload) > 0 && payload[0] == walOpVersion {
			// The tree right now is exactly the state at this record's LSN
			// (checkpoint plus the replayed prefix), so re-capturing here
			// reconstructs the version with its original contents. Versions
			// whose record the checkpoint superseded were rehydrated from the
			// checkpoint's manifests (meta v8) before replay started — the
			// LSN filter above keeps the two sources disjoint.
			id, err := decodeVersionRecord(payload)
			if err != nil {
				return fmt.Errorf("dctree: replaying version record lsn %d: %w", lsn, err)
			}
			if _, err := t.snapshotLocked(id, lsn); err != nil {
				return fmt.Errorf("dctree: reconstructing version %d lsn %d: %w", id, lsn, err)
			}
			t.metrics.snapshotsRecovered.Inc()
			return nil
		}
		if len(payload) > 0 && payload[0] == walOpVersionRelease {
			// A release past the checkpoint: the version may have been
			// rehydrated from the checkpoint's manifest or re-captured from
			// an earlier record in this replay — either way it must not
			// survive the restart its owner released it before.
			id, err := decodeVersionReleaseRecord(payload)
			if err != nil {
				return fmt.Errorf("dctree: replaying version release lsn %d: %w", lsn, err)
			}
			t.releaseVersionReplayLocked(id)
			return nil
		}
		op, rec, err := decodeWALRecord(t.schema, payload)
		if err != nil {
			return err
		}
		switch op {
		case walOpInsert:
			if _, err := t.insertLocked(rec, false); err != nil {
				return fmt.Errorf("dctree: replaying insert lsn %d: %w", lsn, err)
			}
		case walOpDelete:
			if _, err := t.deleteLocked(rec, false); err != nil && !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("dctree: replaying delete lsn %d: %w", lsn, err)
			}
		}
		t.metrics.recoveryReplayed.Inc()
		return nil
	})
}

// Close stops the background checkpointer (if any), checkpoints the tree
// (Flush) and shuts down the WAL committer and log files. The underlying
// store remains open — its lifecycle belongs to the caller. Safe on trees
// without a WAL, where it is equivalent to Flush.
func (t *Tree) Close() error {
	if t.cp != nil {
		t.cp.shutdown()
		t.cp = nil
	}
	// Live versions are NOT released here: the final checkpoint persists
	// their overlays and manifests (meta v8), so they survive the restart
	// and rehydrate on the next open. Release or prune explicitly to let
	// their extents go.
	err := t.Flush()
	if t.wal != nil {
		if werr := t.wal.shutdown(); err == nil {
			err = werr
		}
		t.wal = nil
	}
	return err
}

// WAL exposes the tree's write-ahead log to the log-shipping layer
// (internal/repl): segment enumeration with durable frontiers, range reads,
// and the replication retention floor. Nil on trees without a WAL. Callers
// must not append, sync, truncate or close the log — those belong to the
// tree's committer and checkpoints.
func (t *Tree) WAL() *storage.WAL {
	if t.wal == nil {
		return nil
	}
	return t.wal.w
}

// WALStats exposes the log's activity counters (zero value without a WAL).
func (t *Tree) WALStats() storage.WALStats {
	if t.wal == nil {
		return storage.WALStats{}
	}
	return t.wal.w.Stats()
}

// Epoch returns the tree's replication fencing epoch: 1 for a fresh
// durable tree, incremented by every promotion, 0 for trees that predate
// fencing. Shipped log records carry the epoch of the segment that holds
// them; a follower refuses records below its own epoch (ErrFenced).
func (t *Tree) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// BumpEpoch increments the fencing epoch and makes the new value durable
// before returning: the WAL rotates onto a segment stamped with the new
// epoch (its header is fsynced by creation), so every record acknowledged
// after a promotion is provably from the new timeline even if the process
// dies before the next checkpoint persists the epoch in meta. Promotion
// (internal/repl) is the only intended caller.
func (t *Tree) BumpEpoch() (uint64, error) {
	if t.wal == nil {
		return 0, fmt.Errorf("dctree: BumpEpoch on a tree without a WAL")
	}
	epoch, err := t.wal.w.BumpEpoch()
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.epoch = epoch
	t.mu.Unlock()
	return epoch, nil
}

// ObserveFollowerAck folds one follower acknowledgment into the primary:
// the follower named has durably applied the shipped log through lsn
// while on the given epoch. The replication retention floor tracks the
// slowest follower, synchronous writers waiting on the quorum frontier
// wake as it advances — and an acknowledgment from a HIGHER epoch means a
// follower was promoted while this primary kept running: the write path
// is poisoned with ErrFenced exactly as a failed fsync would poison it,
// because acknowledging further writes here would lose them on failover.
// No-op on trees without a WAL.
func (t *Tree) ObserveFollowerAck(follower string, epoch, lsn uint64) error {
	if t.wal == nil {
		return nil
	}
	if own := t.Epoch(); epoch > own && own > 0 {
		t.wal.poison(ErrFenced)
		return ErrFenced
	}
	floor := t.wal.observeAck(follower, lsn)
	t.wal.w.SetRetainLSN(floor)
	return nil
}

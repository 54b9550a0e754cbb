package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"github.com/dcindex/dctree"
	"github.com/dcindex/dctree/internal/tpcd"
)

// Workload inputs are generated in-process: the TPC-D cube's dimension
// tables come from internal/tpcd, the fact rows, op streams and query
// lists from rand sources seeded with --seed. Nothing here touches a tree,
// so two generations with one seed are byte-identical (inputDigest pins
// that in the self-tests).

// opKind tells a write op's direction.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
)

// writeOp is one pre-generated write: the record to insert, or the live
// record to delete.
type writeOp struct {
	kind opKind
	rec  dctree.Record
}

// queryKind tags a query with the generator that drew it.
type queryKind uint8

const (
	qRange01 queryKind = iota
	qRange05
	qRange25
	qRollup
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{"range01", "range05", "range25", "rollup"}

// benchQuery is one distinct query of a workload's fixed list.
type benchQuery struct {
	kind queryKind
	mds  dctree.MDS
}

// cubeGen draws a workload's inputs over the TPC-D cube.
type cubeGen struct {
	schema *dctree.Schema
	rng    *rand.Rand     // fact rows, op streams and deletes
	leaves [4][]dctree.ID // leaf values per dimension
	days   []dctree.ID
	paths  [4]map[dctree.ID][]string // leaf → top-down value names
}

// dimensionSeed fixes the dimension tables. Like TPC-D's, they are one
// fixed database per scale; --seed draws the fact rows, the op streams and
// the queries. Tree shape — and with it the cost of every operation —
// depends far more on the tables than on which uniform fact rows land in
// them, so fixed tables keep runs with different seeds comparable.
const dimensionSeed = 1

// newCubeGen builds the cube for records fact rows: dimension tables sized
// like TPC-D at that row count (tpcd.ScaleFor).
func newCubeGen(seed int64, records int) (*cubeGen, error) {
	g, err := tpcd.New(dimensionSeed, tpcd.ScaleFor(records))
	if err != nil {
		return nil, err
	}
	c := &cubeGen{schema: g.Schema(), rng: rand.New(rand.NewSource(seed))}
	for d := range c.leaves {
		h, err := c.schema.Dim(d)
		if err != nil {
			return nil, err
		}
		if c.leaves[d], err = h.ValuesAt(0); err != nil {
			return nil, err
		}
	}
	c.days = c.leaves[tpcd.DimTime]
	return c, nil
}

// record draws a LINEITEM-like fact row the way tpcd.Gen.Record does —
// uniform foreign keys, Extended Price as quantity × part price — with
// the Time coordinate set to the day with index day (days are registered,
// and hence numbered, in calendar order).
func (c *cubeGen) record(day int) dctree.Record {
	coords := make([]dctree.ID, len(c.leaves))
	for d, leaves := range c.leaves {
		coords[d] = leaves[c.rng.Intn(len(leaves))]
	}
	coords[tpcd.DimTime] = c.days[day]
	qty := 1 + c.rng.Intn(50)
	price := 900 + float64(c.rng.Intn(120001))/100
	return dctree.Record{Coords: coords, Measures: []float64{float64(qty) * price}}
}

// baseRecords draws n rows spread uniformly over the first dayLimit days.
func (c *cubeGen) baseRecords(n, dayLimit int) []dctree.Record {
	out := make([]dctree.Record, n)
	for i := range out {
		out[i] = c.record(c.rng.Intn(dayLimit))
	}
	return out
}

// liveSet tracks the records a stream of writes leaves in the tree, so
// deletes always name a live record and the oracle knows the final state.
type liveSet struct{ recs []dctree.Record }

func (l *liveSet) add(r dctree.Record) { l.recs = append(l.recs, r) }

// removeAt swap-removes the i-th live record and returns it.
func (l *liveSet) removeAt(i int) dctree.Record {
	r := l.recs[i]
	last := len(l.recs) - 1
	l.recs[i] = l.recs[last]
	l.recs = l.recs[:last]
	return r
}

// writeStream draws n writes against live: a deleteShare fraction delete a
// uniformly chosen live record (the paper's random order); the rest insert
// a fresh row whose day comes from day(i).
func (c *cubeGen) writeStream(n int, deleteShare float64, live *liveSet, day func(i int) int) []writeOp {
	ops := make([]writeOp, n)
	for i := range ops {
		if c.rng.Float64() < deleteShare && len(live.recs) > 0 {
			ops[i] = writeOp{kind: opDelete, rec: live.removeAt(c.rng.Intn(len(live.recs)))}
			continue
		}
		r := c.record(day(i))
		live.add(r)
		ops[i] = writeOp{kind: opInsert, rec: r}
	}
	return ops
}

// queries draws perKind distinct queries of each kind in kinds, interleaved
// so that any prefix of the list holds every kind in equal share.
//
// Range queries follow the paper's generator (tpcd.QueryGen.Query: per
// dimension a hierarchy level and a random subset of up to the
// selectivity of that level's values), except that the i-th query of a
// kind takes the i-th combination of levels instead of a random one. A
// query's cost depends far more on its levels than on its values, so this
// gives every seed's list the same mix of levels and keeps runs with
// different seeds comparable. Roll-ups follow tpcd.QueryGen.Rollup the
// same way: the i-th takes the i-th choice of constrained dimensions and
// levels.
func (c *cubeGen) queries(seed int64, perKind int, kinds ...queryKind) ([]benchQuery, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []benchQuery
	for i := 0; i < perKind; i++ {
		for _, k := range kinds {
			q := benchQuery{kind: k}
			var err error
			switch k {
			case qRange01:
				q.mds, err = c.rangeQuery(rng, i, 0.01)
			case qRange05:
				q.mds, err = c.rangeQuery(rng, i, 0.05)
			case qRange25:
				q.mds, err = c.rangeQuery(rng, i, 0.25)
			case qRollup:
				q.mds, err = c.rollupQuery(rng, i)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, q)
		}
	}
	return out, nil
}

// rollupQuery draws the i-th roll-up: one to three dimensions constrained,
// each at one of its two coarsest levels with one or two values, the rest
// ALL. i picks the dimensions (cycling through every subset of one to
// three) and the levels (the bits of i over the number of subsets).
func (c *cubeGen) rollupQuery(rng *rand.Rand, i int) (dctree.MDS, error) {
	space := c.schema.Space()
	var subsets []int // bit masks over the dimensions
	for m := 1; m < 1<<len(space); m++ {
		if n := bits.OnesCount(uint(m)); n <= 3 {
			subsets = append(subsets, m)
		}
	}
	mask, levelBits := subsets[i%len(subsets)], i/len(subsets)
	q := make(dctree.MDS, len(space))
	for d, h := range space {
		if mask&(1<<d) == 0 {
			q[d] = dctree.AllDim()
			continue
		}
		level := max(h.TopLevel()-(levelBits>>d)&1, 0)
		vals, err := h.ValuesAt(level)
		if err != nil {
			return nil, err
		}
		q[d] = dctree.DimSet{Level: level, IDs: pick(rng, vals, min(1+rng.Intn(2), len(vals)))}
	}
	return q, nil
}

// pick returns k distinct random values of vals in ID order.
func pick(rng *rand.Rand, vals []dctree.ID, k int) []dctree.ID {
	ids := make([]dctree.ID, k)
	for j, p := range rng.Perm(len(vals))[:k] {
		ids[j] = vals[p]
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// levelCombos is the number of combinations of hierarchy levels a range
// query can take.
func (c *cubeGen) levelCombos() int {
	n := 1
	for _, h := range c.schema.Space() {
		n *= h.Depth()
	}
	return n
}

// rangeQuery draws a range query of the given selectivity at the combo-th
// combination of hierarchy levels (mixed radix over the dimensions'
// depths, wrapping around).
func (c *cubeGen) rangeQuery(rng *rand.Rand, combo int, selectivity float64) (dctree.MDS, error) {
	space := c.schema.Space()
	q := make(dctree.MDS, len(space))
	for d, h := range space {
		level := combo % h.Depth()
		combo /= h.Depth()
		vals, err := h.ValuesAt(level)
		if err != nil {
			return nil, err
		}
		k := min(max(int(selectivity*float64(len(vals))), 1), len(vals))
		q[d] = dctree.DimSet{Level: level, IDs: pick(rng, vals, k)}
	}
	return q, nil
}

// leafPath returns the top-down value names of a leaf, the form in which
// the ingest workload feeds records through Schema.InternRecord.
func (c *cubeGen) leafPath(dim int, id dctree.ID) ([]string, error) {
	if c.paths[dim] == nil {
		c.paths[dim] = map[dctree.ID][]string{}
	}
	if p, ok := c.paths[dim][id]; ok {
		return p, nil
	}
	h, err := c.schema.Dim(dim)
	if err != nil {
		return nil, err
	}
	var names []string
	for cur := id; !cur.IsALL(); {
		name, err := h.ValueName(cur)
		if err != nil {
			return nil, err
		}
		names = append([]string{name}, names...)
		if cur, err = h.Parent(cur); err != nil {
			return nil, err
		}
	}
	c.paths[dim][id] = names
	return names, nil
}

// recordPaths renders every record of ops as string paths, in op order
// (nil for deletes, which name records by ID).
func (c *cubeGen) recordPaths(ops []writeOp) ([][][]string, error) {
	out := make([][][]string, len(ops))
	for i, op := range ops {
		if op.kind != opInsert {
			continue
		}
		p := make([][]string, len(op.rec.Coords))
		for d, id := range op.rec.Coords {
			var err error
			if p[d], err = c.leafPath(d, id); err != nil {
				return nil, err
			}
		}
		out[i] = p
	}
	return out, nil
}

// inputDigest hashes a workload's generated inputs — base rows, write ops
// and query lists, in generation order — in a fixed binary form.
type inputDigest struct{ h hash.Hash }

func newInputDigest() *inputDigest { return &inputDigest{h: sha256.New()} }

func (d *inputDigest) records(recs []dctree.Record) {
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	d.h.Write(buf)
}

func (d *inputDigest) ops(ops []writeOp) {
	var buf []byte
	for _, op := range ops {
		buf = appendRecord(append(buf, byte(op.kind)), op.rec)
	}
	d.h.Write(buf)
}

func (d *inputDigest) queries(qs []benchQuery) {
	var buf []byte
	for _, q := range qs {
		buf = append(buf, byte(q.kind))
		for _, ds := range q.mds {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(ds.Level)))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ds.IDs)))
			for _, id := range ds.IDs {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
			}
		}
	}
	d.h.Write(buf)
}

func (d *inputDigest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }

func appendRecord(buf []byte, r dctree.Record) []byte {
	for _, id := range r.Coords {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	for _, m := range r.Measures {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m))
	}
	return buf
}

func (k queryKind) String() string {
	if k < numQueryKinds {
		return queryKindNames[k]
	}
	return fmt.Sprintf("kind%d", k)
}

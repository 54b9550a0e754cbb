package core

import (
	"fmt"
	"sort"

	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// splitNode implements the split algorithm of Fig. 5 for an overflowing
// node n. nodeMDS is the describing MDS held by the parent (the top MDS
// (ALL,…,ALL) for the root): its relevant levels drive both the
// split-dimension order and the adaptation of the entries.
//
// The algorithm tries one split dimension after another, ordered by the
// hierarchy level of the node MDS's values in that dimension (highest
// level first: a dimension still described by ALL, or by coarse values,
// has the most headroom to separate the entries). For each candidate
// dimension d the entry MDSs are made mutually comparable — §3.2 requires
// all operands of MDS operations to carry values of the same level per
// dimension — by adapting them to the node's relevant levels, except that
// in dimension d the target level drops one below the node's level. That
// drop is the heart of the DC-tree: the node described by ({Europe},…)
// splits into two *nation-level* groups ("the relevant level of this
// dimension may be decreased by one for the MDSs of the two resulting
// subgroups", §3.2), so directory MDSs stay coarse — a handful of values
// per dimension — and refine one hierarchy level per split on the way
// down. Each candidate dimension is partitioned by the hierarchy split of
// Fig. 6; the first partition that is balanced and has acceptably low
// overlap wins, and the two groups' MDSs are the covers of the adapted
// members (coarse in every non-split dimension, one level finer in the
// split dimension).
//
// If no dimension yields an acceptable split, the node becomes (or grows
// as) a supernode; at the supernode cap, or with supernodes disabled, the
// best partition seen so far is forced instead.
func (t *Tree) splitNode(n *node, nodeMDS mds.MDS) (insertResult, error) {
	total := len(n.entries)
	minFill := int(t.cfg.MinFillRatio * float64(total))
	if minFill < 1 {
		minFill = 1
	}

	type candidate struct {
		g1, g2  []int
		adapted []mds.MDS
		ratio   float64
	}
	var fallback *candidate // best-ratio partition seen, for forced splits

	for _, dim := range t.splitDimensionOrder(nodeMDS) {
		// The split dimension's relevant level decreases as far as needed:
		// on uniform data the coarse levels saturate (every subtree covers
		// every region, every brand, ...) and separation only exists at
		// finer levels, down to the leaf values in the worst case.
		for _, targets := range t.adaptationTargetLadder(nodeMDS, dim) {
			adapted := make([]mds.MDS, total)
			for i := range n.entries {
				a, err := t.describeEntryAt(&n.entries[i], n.leaf, targets)
				if err != nil {
					return insertResult{}, err
				}
				adapted[i] = a
			}
			g1, g2, ratio, err := t.hierarchySplit(adapted, dim, minFill)
			if err != nil {
				return insertResult{}, err
			}
			if len(g1) == 0 || len(g2) == 0 {
				continue
			}
			balanced := len(g1) >= minFill && len(g2) >= minFill
			if balanced && ratio <= t.cfg.MaxOverlapRatio {
				t.metrics.splitsHierarchy.Inc()
				return t.buildSplit(n, g1, g2, adapted)
			}
			if fallback == nil || ratio < fallback.ratio {
				fallback = &candidate{g1: g1, g2: g2, adapted: adapted, ratio: ratio}
			}
		}
	}

	// No acceptable split in any dimension (Fig. 5: "Create supernode").
	mayGrow := !t.cfg.DisableSupernodes &&
		(t.cfg.MaxSupernodeBlocks == 0 || n.blocks < t.cfg.MaxSupernodeBlocks)
	if mayGrow || fallback == nil {
		// fallback == nil cannot happen with ≥ 2 entries, but guard by
		// growing anyway.
		if n.blocks == 1 {
			t.metrics.supernodeCreated.Inc()
		} else {
			t.metrics.supernodeGrown.Inc()
		}
		n.blocks++
		return insertResult{}, nil
	}
	t.metrics.splitsForced.Inc()
	return t.buildSplit(n, fallback.g1, fallback.g2, fallback.adapted)
}

// adaptationTargetLadder returns the sequence of target-level vectors for
// a split along splitDim: the node's relevant levels everywhere, with the
// split dimension lowered by one, two, ... down to the leaf level.
func (t *Tree) adaptationTargetLadder(nodeMDS mds.MDS, splitDim int) [][]int {
	space := t.space()
	base := make([]int, len(nodeMDS))
	for i := range nodeMDS {
		base[i] = nodeMDS[i].Level
	}
	start := base[splitDim]
	if start == hierarchy.LevelALL {
		start = space[splitDim].TopLevel() + 1
	}
	var ladder [][]int
	for level := start - 1; level >= 0; level-- {
		targets := make([]int, len(base))
		copy(targets, base)
		targets[splitDim] = level
		ladder = append(ladder, targets)
	}
	if len(ladder) == 0 {
		// Split dimension already at the leaf level: separate there.
		targets := make([]int, len(base))
		copy(targets, base)
		ladder = append(ladder, targets)
	}
	return ladder
}

// describeEntryAt returns the minimal describing MDS of an entry's content
// at the target levels. When the entry's stored MDS is at or below the
// targets it is simply lifted; when the entry is *coarser* than a target
// in some dimension (its MDS says ALL or a single high-level value, but
// the split needs one level finer), the description is derived from the
// entry's subtree — Adapt can only generalize, so the finer values must
// come from below. Records ground the recursion: a record is describable
// at every level.
func (t *Tree) describeEntryAt(e *entry, leaf bool, targets []int) (mds.MDS, error) {
	if leaf || !coarserThan(e.MDS, targets) {
		return mds.AdaptToLevels(t.space(), e.MDS, targets)
	}
	child, err := t.getNode(e.Child)
	if err != nil {
		return nil, err
	}
	return t.describeNodeAt(child, targets)
}

// coarserThan reports whether m sits above the target level in some
// dimension.
func coarserThan(m mds.MDS, targets []int) bool {
	for i, target := range targets {
		if levelAboveInt(m[i].Level, target) {
			return true
		}
	}
	return false
}

// describeNodeAt computes the minimal describing MDS of a whole node's
// content at the target levels: per dimension, the union of its entries'
// descriptions (describeEntryAt). Every entry's values are gathered
// straight into per-dimension scratch buffers, descending wherever an
// entry is coarser than the targets, and each dimension is built from its
// buffer once.
func (t *Tree) describeNodeAt(n *node, targets []int) (mds.MDS, error) {
	acc := t.scratch.describe
	if len(acc) != len(targets) {
		acc = make([][]hierarchy.ID, len(targets))
	}
	for d := range acc {
		acc[d] = acc[d][:0]
	}
	err := t.gatherAt(n, targets, acc)
	t.scratch.describe = acc
	if err != nil {
		return nil, err
	}
	out := make(mds.MDS, len(targets))
	for d, ids := range acc {
		if cap(ids) > maxRetainedDescribe {
			// Describing a large subtree at a fine level gathers one value
			// per record; do not keep such a buffer alive with the tree.
			acc[d] = nil
		}
		if targets[d] == hierarchy.LevelALL {
			out[d] = mds.AllDim()
			continue
		}
		out[d] = mds.NewDimSet(targets[d], ids)
	}
	return out, nil
}

// maxRetainedDescribe bounds the per-dimension scratch describeNodeAt
// keeps between calls: enough for a split's node-sized descriptions.
const maxRetainedDescribe = 1024

// gatherAt appends the values of every entry of n, lifted to the target
// levels, to acc (one buffer per dimension; ALL targets are skipped).
// Entries coarser than the targets contribute their subtree's values.
func (t *Tree) gatherAt(n *node, targets []int, acc [][]hierarchy.ID) error {
	if len(n.entries) == 0 {
		return fmt.Errorf("%w: node %d has no entries to describe", ErrCorrupt, n.id)
	}
	space := t.space()
	for i := range n.entries {
		e := &n.entries[i]
		if !n.leaf && coarserThan(e.MDS, targets) {
			child, err := t.getNode(e.Child)
			if err != nil {
				return err
			}
			if err := t.gatherAt(child, targets, acc); err != nil {
				return err
			}
			continue
		}
		for d, ds := range e.MDS {
			target := targets[d]
			switch target {
			case hierarchy.LevelALL:
			case ds.Level:
				acc[d] = append(acc[d], ds.IDs...)
			default:
				for _, id := range ds.IDs {
					anc, err := space[d].AncestorAt(id, target)
					if err != nil {
						return err
					}
					acc[d] = append(acc[d], anc)
				}
			}
		}
	}
	return nil
}

// levelAboveInt mirrors mds's level ordering with LevelALL on top.
func levelAboveInt(a, b int) bool {
	if a == b {
		return false
	}
	if a == hierarchy.LevelALL {
		return true
	}
	if b == hierarchy.LevelALL {
		return false
	}
	return a > b
}

// splitDimensionOrder returns the dimensions ordered by decreasing
// hierarchy level of the node MDS ("the algorithm always selects the
// dimension with the highest hierarchy level of the elements of the MDS"),
// ties broken by fewer values (more concentrated, hence more separable).
func (t *Tree) splitDimensionOrder(nodeMDS mds.MDS) []int {
	dims := make([]int, len(nodeMDS))
	for i := range dims {
		dims[i] = i
	}
	rank := func(d int) int {
		if nodeMDS[d].Level == hierarchy.LevelALL {
			return hierarchy.LevelALL
		}
		return nodeMDS[d].Level
	}
	sort.SliceStable(dims, func(a, b int) bool {
		ra, rb := rank(dims[a]), rank(dims[b])
		if ra != rb {
			return ra > rb
		}
		return len(nodeMDS[dims[a]].IDs) < len(nodeMDS[dims[b]].IDs)
	})
	return dims
}

// hierarchySplit is the quadratic split of Fig. 6 over level-adapted MDSs,
// splitting along one dimension. It returns the two groups as index lists
// into adapted, and the overlap ratio overlap(G1,G2)/extension(G1,G2) of
// the groups' covers — the "overlap is not too high" acceptance test.
//
// Seeds: the pair whose covering MDS is largest (most dead space if kept
// together). Then, repeatedly, the remaining MDS with the greatest
// difference between its enlargements of the two groups in the split
// dimension is assigned to the group with the minimum resulting overlap,
// ties broken by minimum sum of extensions (volume enlargement), then by
// minimum sum of volumes, then by fewer entries. Per Guttman's original
// quadratic split (which Fig. 6 is based on), once one group grows so
// large that the other needs every remaining MDS to reach the minimum
// fill, the remainder is assigned to the smaller group outright —
// without this rule the greedy loop degenerates on large supernodes,
// where the bigger group's cover swallows everything.
//
// The members of adapted all sit at the same levels (describeEntryAt
// adapts or descends every entry to the same targets), so a cover of any
// of them is the per-dimension union of their value sets and every
// volume and overlap above is a product of union and intersection
// counts. The split counts instead of building covers: the two group
// covers are owned scratch buffers grown in place, and only the winning
// partition's covers are materialized, by buildSplit.
func (t *Tree) hierarchySplit(adapted []mds.MDS, dim, minFill int) (g1, g2 []int, ratio float64, err error) {
	k := len(adapted)
	if k < 2 {
		return nil, nil, 0, nil
	}
	for i := 1; i < k; i++ {
		if !mds.SameLevels(adapted[0], adapted[i]) {
			return nil, nil, 0, fmt.Errorf("%w: split members %d and 0 are not level-aligned", ErrCorrupt, i)
		}
	}

	// Seed selection: pair with the largest covering MDS.
	seedA, seedB := -1, -1
	var worst float64 = -1
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if v := mds.UnionVolume(adapted[i], adapted[j]); v > worst {
				worst, seedA, seedB = v, i, j
			}
		}
	}

	g1, g2 = []int{seedA}, []int{seedB}
	sc := &t.scratch
	sc.cov1 = resetCover(sc.cov1, adapted[seedA])
	sc.cov2 = resetCover(sc.cov2, adapted[seedB])
	cov1, cov2 := sc.cov1, sc.cov2

	remaining := make([]int, 0, k-2)
	for i := 0; i < k; i++ {
		if i != seedA && i != seedB {
			remaining = append(remaining, i)
		}
	}

	for len(remaining) > 0 {
		// Guttman's termination rule: if a group needs every remaining
		// entry just to reach the minimum fill, hand them all over.
		if len(g1)+len(remaining) <= minFill {
			g1 = appendGroup(g1, cov1, adapted, remaining)
			break
		}
		if len(g2)+len(remaining) <= minFill {
			g2 = appendGroup(g2, cov2, adapted, remaining)
			break
		}
		// Pick the MDS with the greatest difference between the two groups'
		// enlargements in the split dimension.
		pick := -1
		var pickDiff float64 = -1
		for ri, i := range remaining {
			e1 := dimEnlargement(cov1, adapted[i], dim)
			e2 := dimEnlargement(cov2, adapted[i], dim)
			diff := abs(float64(e1 - e2))
			if diff > pickDiff {
				pickDiff, pick = diff, ri
			}
		}
		i := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		m := adapted[i]

		// Criterion 1: minimum resulting overlap between the groups.
		ov1 := mds.GrownOverlap(cov1, m, cov2)
		ov2 := mds.GrownOverlap(cov2, m, cov1)
		into1 := false
		switch {
		case ov1 < ov2:
			into1 = true
		case ov1 > ov2:
			into1 = false
		default:
			// Criterion 2: minimum sum of extensions (volume enlargement).
			vol1, vol2 := mds.UnionVolume(cov1, m), mds.UnionVolume(cov2, m)
			ext1 := vol1 - cov1.Volume()
			ext2 := vol2 - cov2.Volume()
			switch {
			case ext1 < ext2:
				into1 = true
			case ext1 > ext2:
				into1 = false
			default:
				// Criterion 3: minimum sum of volumes.
				switch {
				case vol1 < vol2:
					into1 = true
				case vol1 > vol2:
					into1 = false
				default:
					// Final tie: keep the groups balanced.
					into1 = len(g1) <= len(g2)
				}
			}
		}
		if into1 {
			g1 = append(g1, i)
			mds.UnionInto(cov1, m)
		} else {
			g2 = append(g2, i)
			mds.UnionInto(cov2, m)
		}
	}

	if ov := mds.IntersectVolume(cov1, cov2); ov != 0 {
		ratio = ov / mds.UnionVolume(cov1, cov2)
	}
	return g1, g2, ratio, nil
}

// resetCover makes buf an owned copy of m, reusing buf's storage.
func resetCover(buf, m mds.MDS) mds.MDS {
	if len(buf) != len(m) {
		buf = make(mds.MDS, len(m))
	}
	for d := range m {
		buf[d].Level = m[d].Level
		buf[d].IDs = append(buf[d].IDs[:0], m[d].IDs...)
	}
	return buf
}

// appendGroup adds members to a group and folds them into its cover.
func appendGroup(group []int, cov mds.MDS, adapted []mds.MDS, members []int) []int {
	for _, i := range members {
		mds.UnionInto(cov, adapted[i])
	}
	return append(group, members...)
}

// dimEnlargement returns how many attribute values group cover g would gain
// in the split dimension by absorbing m.
func dimEnlargement(g, m mds.MDS, dim int) int {
	return mds.UnionCount(g[dim].IDs, m[dim].IDs) - len(g[dim].IDs)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func coverOf(space mds.Space, adapted []mds.MDS, group []int) (mds.MDS, error) {
	members := make([]mds.MDS, len(group))
	for i, g := range group {
		members[i] = adapted[g]
	}
	return mds.Cover(space, members...)
}

// buildSplit materializes a chosen partition: the original node keeps
// group 1, a fresh sibling receives group 2, and both groups' describing
// MDSs — the covers of the *adapted* members, i.e. at the node's relevant
// levels with the split dimension one level lower — are returned to the
// parent together with the groups' aggregates.
func (t *Tree) buildSplit(n *node, g1, g2 []int, adapted []mds.MDS) (insertResult, error) {
	space := t.space()
	measures := t.schema.Measures()

	origMDS, err := coverOf(space, adapted, g1)
	if err != nil {
		return insertResult{}, err
	}
	newMDS, err := coverOf(space, adapted, g2)
	if err != nil {
		return insertResult{}, err
	}

	take := func(group []int) []entry {
		out := make([]entry, len(group))
		for i, g := range group {
			out[i] = n.entries[g]
		}
		return out
	}
	e1, e2 := take(g1), take(g2)

	sibling := t.newNode(n.leaf)
	n.entries = e1
	sibling.entries = e2
	n.blocks = blocksForEntries(len(e1), n.leaf, &t.cfg)
	sibling.blocks = blocksForEntries(len(e2), n.leaf, &t.cfg)
	t.markDirty(n)
	t.markDirty(sibling)

	// Refine the relevant levels of the fresh nodes: a narrow subtree can
	// usually be described at a much finer level without blowing up the
	// MDS, and finer descriptions mean more pruning and more materialized
	// hits on the query path.
	if origMDS, err = t.refineMDS(n, origMDS); err != nil {
		return insertResult{}, err
	}
	if newMDS, err = t.refineMDS(sibling, newMDS); err != nil {
		return insertResult{}, err
	}

	return insertResult{
		split:   true,
		newID:   sibling.id,
		origMDS: origMDS,
		newMDS:  newMDS,
		origAgg: n.aggregate(measures),
		newAgg:  sibling.aggregate(measures),
	}, nil
}

// refineMDS lowers the relevant level of every dimension of a node's MDS
// as long as the description at the finer level keeps at most
// Config.RefineBound values in that dimension. Refinement preserves
// coverage and minimality (the description is recomputed exactly from the
// subtree at each step) and realizes the paper's observation that node
// MDSs become more specific further down the tree.
func (t *Tree) refineMDS(n *node, m mds.MDS) (mds.MDS, error) {
	bound := t.cfg.RefineBound
	if bound <= 0 {
		return m, nil
	}
	space := t.space()
	levels := make([]int, len(m))
	for d := range m {
		levels[d] = m[d].Level
	}
	for changed := true; changed; {
		changed = false
		for d := range levels {
			var next int
			switch {
			case levels[d] == hierarchy.LevelALL:
				next = space[d].TopLevel()
			case levels[d] > 0:
				next = levels[d] - 1
			default:
				continue
			}
			cand := make([]int, len(levels))
			copy(cand, levels)
			cand[d] = next
			desc, err := t.describeNodeAt(n, cand)
			if err != nil {
				return nil, err
			}
			if len(desc[d].IDs) <= bound {
				m = desc
				levels = cand
				changed = true
			}
		}
	}
	return m, nil
}

// blocksForEntries returns the smallest block count whose capacity holds
// the given number of entries.
func blocksForEntries(entries int, leaf bool, cfg *Config) int {
	per := cfg.DirCapacity
	if leaf {
		per = cfg.LeafCapacity
	}
	b := (entries + per - 1) / per
	if b < 1 {
		b = 1
	}
	return b
}

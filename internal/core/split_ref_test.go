package core

import (
	"errors"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
)

// refHierarchySplit is the quadratic split of Fig. 6 in its original,
// materializing form: every candidate cover is built with mds.Cover and
// measured with Volume/Overlap. It is the reference the counting kernel
// in hierarchySplit must agree with decision for decision.
func refHierarchySplit(space mds.Space, adapted []mds.MDS, dim, minFill int) (g1, g2 []int, err error) {
	k := len(adapted)
	if k < 2 {
		return nil, nil, nil
	}
	seedA, seedB := -1, -1
	var worst float64 = -1
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			cover, err := mds.Cover(space, adapted[i], adapted[j])
			if err != nil {
				return nil, nil, err
			}
			if v := cover.Volume(); v > worst {
				worst, seedA, seedB = v, i, j
			}
		}
	}
	g1, g2 = []int{seedA}, []int{seedB}
	cov1, cov2 := adapted[seedA], adapted[seedB]
	remaining := make([]int, 0, k-2)
	for i := 0; i < k; i++ {
		if i != seedA && i != seedB {
			remaining = append(remaining, i)
		}
	}
	enlargement := func(g, m mds.MDS) (int, error) {
		union, err := mds.ExtensionIn(space, g, m, dim)
		if err != nil {
			return 0, err
		}
		own, err := mds.ExtensionIn(space, g, g, dim)
		return union - own, err
	}
	for len(remaining) > 0 {
		if len(g1)+len(remaining) <= minFill {
			g1 = append(g1, remaining...)
			break
		}
		if len(g2)+len(remaining) <= minFill {
			g2 = append(g2, remaining...)
			break
		}
		pick := -1
		var pickDiff float64 = -1
		for ri, i := range remaining {
			e1, err := enlargement(cov1, adapted[i])
			if err != nil {
				return nil, nil, err
			}
			e2, err := enlargement(cov2, adapted[i])
			if err != nil {
				return nil, nil, err
			}
			if diff := abs(float64(e1 - e2)); diff > pickDiff {
				pickDiff, pick = diff, ri
			}
		}
		i := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		grown1, err := mds.Cover(space, cov1, adapted[i])
		if err != nil {
			return nil, nil, err
		}
		grown2, err := mds.Cover(space, cov2, adapted[i])
		if err != nil {
			return nil, nil, err
		}
		ov1, err := mds.Overlap(space, grown1, cov2)
		if err != nil {
			return nil, nil, err
		}
		ov2, err := mds.Overlap(space, cov1, grown2)
		if err != nil {
			return nil, nil, err
		}
		into1 := false
		switch {
		case ov1 < ov2:
			into1 = true
		case ov1 > ov2:
			into1 = false
		default:
			ext1 := grown1.Volume() - cov1.Volume()
			ext2 := grown2.Volume() - cov2.Volume()
			switch {
			case ext1 < ext2:
				into1 = true
			case ext1 > ext2:
				into1 = false
			default:
				switch {
				case grown1.Volume() < grown2.Volume():
					into1 = true
				case grown1.Volume() > grown2.Volume():
					into1 = false
				default:
					into1 = len(g1) <= len(g2)
				}
			}
		}
		if into1 {
			g1 = append(g1, i)
			cov1 = grown1
		} else {
			g2 = append(g2, i)
			cov2 = grown2
		}
	}
	return g1, g2, nil
}

// refGroupOverlapRatio is overlap(G1,G2)/extension(G1,G2) over
// materialized group covers.
func refGroupOverlapRatio(space mds.Space, adapted []mds.MDS, g1, g2 []int) (float64, error) {
	cov1, err := coverOf(space, adapted, g1)
	if err != nil {
		return 0, err
	}
	cov2, err := coverOf(space, adapted, g2)
	if err != nil {
		return 0, err
	}
	ov, err := mds.Overlap(space, cov1, cov2)
	if err != nil || ov == 0 {
		return 0, err
	}
	ext, err := mds.Extension(space, cov1, cov2)
	if err != nil {
		return 0, err
	}
	return ov / ext, nil
}

// refDescribeNodeAt describes a node at the target levels the original
// way: adapt every entry (or describe its subtree, where the entry is
// coarser than the targets) and cover the results.
func refDescribeNodeAt(tree *Tree, n *node, targets []int) (mds.MDS, error) {
	members := make([]mds.MDS, len(n.entries))
	for i := range n.entries {
		e := &n.entries[i]
		var err error
		if n.leaf || !coarserThan(e.MDS, targets) {
			members[i], err = mds.AdaptToLevels(tree.space(), e.MDS, targets)
		} else {
			var child *node
			if child, err = tree.getNode(e.Child); err == nil {
				members[i], err = refDescribeNodeAt(tree, child, targets)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return mds.Cover(tree.space(), members...)
}

// growTPCDTree inserts 3000 TPC-D records into a small-node tree and
// returns it with its generator. A near-zero overlap bound rejects most
// candidate splits, so supernodes form and the split kernel also runs on
// their large groups.
func growTPCDTree(t *testing.T, seed int64) (*Tree, *tpcd.Gen) {
	t.Helper()
	gen, err := tpcd.New(seed, tpcd.ScaleFor(3000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.MaxOverlapRatio = 0.01
	tree, err := New(storage.NewMemStore(cfg.BlockSize), gen.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gen.Records(3000) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tree, gen
}

// TestHierarchySplitMatchesReference grows trees from TPC-D records and,
// for every node and every (split dimension, ladder level) the split
// algorithm would try, checks that the counting kernel returns the same
// groups and the bit-identical overlap ratio as the materializing
// reference, on the very adapted sets splitNode would build. The
// node descriptions the split and refinement derive from subtrees are
// checked against the adapt-then-cover reference on the way.
func TestHierarchySplitMatchesReference(t *testing.T) {
	sawSuper := false
	for _, seed := range []int64{1, 2, 3} {
		tree, _ := growTPCDTree(t, seed)
		cfg := tree.cfg
		space := tree.space()
		splits := 0
		var walk func(id nodeID, nodeMDS mds.MDS)
		walk = func(id nodeID, nodeMDS mds.MDS) {
			n, err := tree.getNode(id)
			if err != nil {
				t.Fatal(err)
			}
			sawSuper = sawSuper || n.isSuper()
			minFill := int(cfg.MinFillRatio * float64(len(n.entries)))
			if minFill < 1 {
				minFill = 1
			}
			for _, dim := range tree.splitDimensionOrder(nodeMDS) {
				for _, targets := range tree.adaptationTargetLadder(nodeMDS, dim) {
					desc, err := tree.describeNodeAt(n, targets)
					if err != nil {
						t.Fatal(err)
					}
					refDesc, err := refDescribeNodeAt(tree, n, targets)
					if err != nil {
						t.Fatal(err)
					}
					if !desc.Equal(refDesc) {
						t.Fatalf("seed %d node %d targets %v: description %v, reference %v", seed, id, targets, desc, refDesc)
					}
					adapted := make([]mds.MDS, len(n.entries))
					for i := range n.entries {
						if adapted[i], err = tree.describeEntryAt(&n.entries[i], n.leaf, targets); err != nil {
							t.Fatal(err)
						}
					}
					g1, g2, ratio, err := tree.hierarchySplit(adapted, dim, minFill)
					if err != nil {
						t.Fatalf("seed %d node %d dim %d targets %v: %v", seed, id, dim, targets, err)
					}
					r1, r2, err := refHierarchySplit(space, adapted, dim, minFill)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(g1, r1) || !slices.Equal(g2, r2) {
						t.Fatalf("seed %d node %d dim %d targets %v: kernel %v|%v, reference %v|%v",
							seed, id, dim, targets, g1, g2, r1, r2)
					}
					if len(g1) == 0 {
						continue
					}
					refRatio, err := refGroupOverlapRatio(space, adapted, r1, r2)
					if err != nil {
						t.Fatal(err)
					}
					if ratio != refRatio {
						t.Fatalf("seed %d node %d dim %d: ratio %v, reference %v", seed, id, dim, ratio, refRatio)
					}
					splits++
				}
			}
			if n.leaf {
				return
			}
			for i := range n.entries {
				walk(n.entries[i].Child, n.entries[i].MDS)
			}
		}
		walk(tree.root, mds.Top(len(space)))
		if splits == 0 {
			t.Fatalf("seed %d: no split candidates compared", seed)
		}
	}
	if !sawSuper {
		t.Fatal("no supernode in any tree: the supernode split path went unchecked")
	}
}

// TestHierarchySplitRejectsMisalignedMembers pins the kernel's fail-closed
// precondition: members at different levels cannot be counted as plain
// unions, so the split refuses them.
func TestHierarchySplitRejectsMisalignedMembers(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	leaf := func(code uint32) mds.DimSet {
		return mds.DimSet{Level: 0, IDs: []hierarchy.ID{hierarchy.MakeID(0, code)}}
	}
	adapted := []mds.MDS{
		{leaf(0), leaf(0), leaf(0)},
		{leaf(1), mds.AllDim(), leaf(1)},
	}
	if _, _, _, err := tree.hierarchySplit(adapted, 0, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misaligned members: err = %v, want ErrCorrupt", err)
	}
}

// refEnlargementCost is choose-subtree's cost function in its original
// form: every entry value is lifted from its own level with AncestorAt,
// separately for every level.
func refEnlargementCost(tree *Tree, entryMDS mds.MDS, rc *recContext) (float64, error) {
	cost := 0.0
	for d, h := range tree.space() {
		ds := entryMDS[d]
		if ds.Level == hierarchy.LevelALL || idMember(ds.IDs, rc.anc[d][ds.Level]) {
			continue
		}
		cost += pow(levelWeight, ds.Level)
		for level := ds.Level + 1; level <= h.TopLevel(); level++ {
			covered := false
			for _, v := range ds.IDs {
				va, err := h.AncestorAt(v, level)
				if err != nil {
					return 0, err
				}
				if va == rc.anc[d][level] {
					covered = true
					break
				}
			}
			if covered {
				break
			}
			cost += pow(levelWeight, level)
		}
	}
	return cost, nil
}

// TestEnlargementCostMatchesReference checks the lockstep lifting of
// choose-subtree against the per-level AncestorAt walk, for every
// directory entry of grown TPC-D trees and fresh records.
func TestEnlargementCostMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		tree, gen := growTPCDTree(t, seed)
		var entries []mds.MDS
		var walk func(id nodeID)
		walk = func(id nodeID) {
			n, err := tree.getNode(id)
			if err != nil {
				t.Fatal(err)
			}
			if n.leaf {
				return
			}
			for i := range n.entries {
				entries = append(entries, n.entries[i].MDS)
				walk(n.entries[i].Child)
			}
		}
		walk(tree.root)
		nonzero := 0
		for _, r := range gen.Records(50) {
			rc, err := tree.newRecContext(r)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				got, err := tree.enlargementCost(e, rc)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refEnlargementCost(tree, e, rc)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d: cost of %v for %v = %v, reference %v", seed, e, r.Coords, got, want)
				}
				if got != 0 {
					nonzero++
				}
			}
		}
		if nonzero == 0 {
			t.Fatalf("seed %d: every cost was zero; the lifting went unexercised", seed)
		}
	}
}

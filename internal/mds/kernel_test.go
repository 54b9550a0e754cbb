package mds

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/hierarchy"
)

// refUnion is the pairwise sorted-merge union the counting helpers and
// Cover are checked against.
func refUnion(a, b []hierarchy.ID) []hierarchy.ID {
	out := make([]hierarchy.ID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// refCover is Cover as a fold of pairwise unions of the lifted members.
func refCover(t *testing.T, space Space, members ...MDS) MDS {
	t.Helper()
	out := make(MDS, len(space))
	for d := range space {
		level := 0
		for _, m := range members {
			if levelAbove(m[d].Level, level) {
				level = m[d].Level
			}
		}
		var union []hierarchy.ID
		for _, m := range members {
			lifted, err := liftDim(space[d], m[d], level)
			if err != nil {
				t.Fatal(err)
			}
			union = refUnion(union, lifted.IDs)
		}
		out[d] = DimSet{Level: level, IDs: union}
	}
	return out
}

// randomIDs draws a sorted, duplicate-free subset of codes [0, 12) at
// level 0.
func randomIDs(rng *rand.Rand) []hierarchy.ID {
	var ids []hierarchy.ID
	for c := uint32(0); c < 12; c++ {
		if rng.Intn(3) == 0 {
			ids = append(ids, hierarchy.MakeID(0, c))
		}
	}
	return ids
}

func TestCountingHelpersMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for i := 0; i < 2000; i++ {
		a, b, c := randomIDs(rng), randomIDs(rng), randomIDs(rng)
		ab := refUnion(a, b)
		if got := UnionCount(a, b); got != len(ab) {
			t.Fatalf("UnionCount(%v, %v) = %d, want %d", a, b, got, len(ab))
		}
		if got, want := unionIntersectCount(a, b, c), intersectCount(ab, c); got != want {
			t.Fatalf("unionIntersectCount(%v, %v, %v) = %d, want %d", a, b, c, got, want)
		}
		// unionInto must merge correctly whether or not dst has spare
		// capacity, and must not touch src.
		srcCopy := slices.Clone(b)
		for _, slack := range []int{0, 1, len(b)} {
			dst := make([]hierarchy.ID, len(a), len(a)+slack)
			copy(dst, a)
			if got := unionInto(dst, b); !slices.Equal(got, ab) {
				t.Fatalf("unionInto(%v, %v) slack %d = %v, want %v", a, b, slack, got, ab)
			}
		}
		if !slices.Equal(b, srcCopy) {
			t.Fatalf("unionInto modified its source: %v, was %v", b, srcCopy)
		}
	}
}

// alignedTriple draws three random MDSs and lifts them to common levels,
// the shape of the hierarchy split's members.
func alignedTriple(t *testing.T, rng *rand.Rand, space Space, leaves [][]hierarchy.ID) (MDS, MDS, MDS) {
	t.Helper()
	ms := []MDS{randomMDS(rng, space, leaves), randomMDS(rng, space, leaves), randomMDS(rng, space, leaves)}
	levels := make([]int, len(space))
	for d := range space {
		for _, m := range ms {
			if levelAbove(m[d].Level, levels[d]) {
				levels[d] = m[d].Level
			}
		}
	}
	for i, m := range ms {
		lifted, err := AdaptToLevels(space, m, levels)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = lifted
	}
	return ms[0], ms[1], ms[2]
}

func TestAlignedKernelsMatchMaterialized(t *testing.T) {
	space, leaves := randomSpace(t, 137, 200)
	rng := rand.New(rand.NewSource(139))
	for i := 0; i < 500; i++ {
		g, m, o := alignedTriple(t, rng, space, leaves)
		if !SameLevels(g, m) || !SameLevels(m, o) {
			t.Fatalf("aligned operands reported misaligned: %v %v %v", g, m, o)
		}
		grown, err := Cover(space, g, m)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := Extension(space, g, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := UnionVolume(g, m); got != grown.Volume() || got != ext {
			t.Fatalf("UnionVolume = %v, cover volume %v, extension %v", got, grown.Volume(), ext)
		}
		ov := 1.0
		for d := range g {
			ov *= float64(len(g[d].IDs) + len(o[d].IDs) - len(refUnion(g[d].IDs, o[d].IDs)))
		}
		if got := IntersectVolume(g, o); got != ov {
			t.Fatalf("IntersectVolume = %v, product of intersection sizes %v", got, ov)
		}
		grownOv, err := Overlap(space, grown, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := GrownOverlap(g, m, o); got != grownOv {
			t.Fatalf("GrownOverlap = %v, Overlap(Cover) %v", got, grownOv)
		}
		in := g.Clone()
		UnionInto(in, m)
		if !in.Equal(grown) {
			t.Fatalf("UnionInto = %v, Cover %v", in, grown)
		}
	}
	a := Top(len(space))
	b := a.Clone()
	b[1] = DimSet{Level: 0, IDs: []hierarchy.ID{leaves[1][0]}}
	if SameLevels(a, b) || SameLevels(a, a[:2]) {
		t.Fatal("SameLevels accepted operands at different levels")
	}
}

func TestCoverMatchesPairwiseUnion(t *testing.T) {
	space, leaves := randomSpace(t, 149, 200)
	rng := rand.New(rand.NewSource(151))
	for i := 0; i < 300; i++ {
		members := make([]MDS, 1+rng.Intn(6))
		for j := range members {
			members[j] = randomMDS(rng, space, leaves)
		}
		got, err := Cover(space, members...)
		if err != nil {
			t.Fatal(err)
		}
		if want := refCover(t, space, members...); !got.Equal(want) {
			t.Fatalf("Cover = %v, pairwise union %v", got, want)
		}
		// Covers are stored in the tree: no dimension may carry slack.
		for d, ds := range got {
			if cap(ds.IDs) != len(ds.IDs) {
				t.Fatalf("Cover dim %d: cap %d != len %d", d, cap(ds.IDs), len(ds.IDs))
			}
		}
		if err := got.Validate(space); err != nil {
			t.Fatalf("Cover result invalid: %v", err)
		}
	}
}

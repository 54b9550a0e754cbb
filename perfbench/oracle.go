package main

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/dcindex/dctree"
	"github.com/dcindex/dctree/internal/seqscan"
)

// Every answer the benchmark accepts is checked against internal/seqscan,
// the paper's sequential-search baseline, outside the timed window.

// oracleAnswers scans recs once per query and returns each query's
// aggregate of the first measure. Two scanners split the queries.
func oracleAnswers(schema *dctree.Schema, recs []dctree.Record, qs []benchQuery) ([]dctree.Agg, error) {
	const workers = 2
	out := make([]dctree.Agg, len(qs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := seqscan.New(schema)
			for _, r := range recs {
				if errs[w] = s.Insert(r); errs[w] != nil {
					return
				}
			}
			for i := w; i < len(qs); i += workers {
				if out[i], errs[w] = s.RangeAgg(qs[i].mds, 0); errs[w] != nil {
					errs[w] = fmt.Errorf("oracle query %d: %w", i, errs[w])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// sameAnswer compares SUM exactly up to float summation order and COUNT
// exactly.
func sameAnswer(got, want dctree.Agg) bool {
	if got.Count != want.Count {
		return false
	}
	return math.Abs(got.Sum-want.Sum) <= 1e-9*math.Max(1, math.Abs(want.Sum))
}

// prefixOracle answers each query of a list for every prefix of a write
// stream applied to a base state: the base answer from seqscan plus the
// signed contributions of the first k writes. With a single writer the
// tree's state at any instant is such a prefix, so a concurrent query is
// correct iff it equals the answer of some prefix between the writes
// completed before it started and the writes started before it ended.
type prefixOracle struct {
	base []dctree.Agg
	sum  [][]float64 // sum[q][k]: measure sum of the first k writes inside q
	cnt  [][]int64
}

func newPrefixOracle(schema *dctree.Schema, base []dctree.Record, ops []writeOp, qs []benchQuery) (*prefixOracle, error) {
	ans, err := oracleAnswers(schema, base, qs)
	if err != nil {
		return nil, err
	}
	o := &prefixOracle{base: ans, sum: make([][]float64, len(qs)), cnt: make([][]int64, len(qs))}
	space := schema.Space()
	for qi, q := range qs {
		sum := make([]float64, len(ops)+1)
		cnt := make([]int64, len(ops)+1)
		for i, op := range ops {
			sum[i+1], cnt[i+1] = sum[i], cnt[i]
			in, err := q.mds.ContainsLeaves(space, op.rec.Coords)
			if err != nil {
				return nil, err
			}
			if !in {
				continue
			}
			if op.kind == opInsert {
				sum[i+1] += op.rec.Measures[0]
				cnt[i+1]++
			} else {
				sum[i+1] -= op.rec.Measures[0]
				cnt[i+1]--
			}
		}
		o.sum[qi], o.cnt[qi] = sum, cnt
	}
	return o, nil
}

// at returns query qi's answer after the first k writes.
func (o *prefixOracle) at(qi, k int) dctree.Agg {
	return dctree.Agg{Sum: o.base[qi].Sum + o.sum[qi][k], Count: o.base[qi].Count + o.cnt[qi][k]}
}

// matches reports whether got is query qi's answer for some prefix k in
// [lo, hi].
func (o *prefixOracle) matches(qi, lo, hi int, got dctree.Agg) bool {
	for k := lo; k <= hi; k++ {
		if sameAnswer(got, o.at(qi, k)) {
			return true
		}
	}
	return false
}

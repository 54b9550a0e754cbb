package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit. Samples is the number of
// observations behind a percentile (0 for counts and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// setPct records the q-quantile of s in microseconds with its sample count.
func (m metrics) setPct(name string, s *samples, q float64) {
	m[name] = metric{Value: s.quantile(q), Unit: "us", Samples: s.len()}
}

// samples collects latencies in microseconds.
type samples struct {
	us     []float64
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.us = append(s.us, float64(d.Nanoseconds())/1e3)
	s.sorted = false
}

func (s *samples) len() int { return len(s.us) }

// quantile returns the nearest-rank q-quantile, 0 without samples.
func (s *samples) quantile(q float64) float64 {
	if len(s.us) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.us)
		s.sorted = true
	}
	i := int(math.Ceil(q*float64(len(s.us)))) - 1
	if i < 0 {
		i = 0
	}
	return s.us[i]
}

// merge appends o's observations.
func (s *samples) merge(o *samples) {
	s.us = append(s.us, o.us...)
	s.sorted = false
}

// median returns the median of xs (the mean of the middle pair for even
// lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocMeter reads the Go allocator's cumulative counters.
type allocMeter struct{ mallocs, bytes uint64 }

func readAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (a allocMeter) sub(b allocMeter) allocMeter {
	return allocMeter{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Tracing records spans around the benchmark's own calls into each layer's
// public functions. Spans live in memory, one recorder per client
// goroutine (no locking on the hot path), and are written out when the
// run ends. A nil *recorder records nothing, so untraced code paths call
// the same methods.

type spanName uint8

const (
	spOpWrite spanName = iota
	spOpQuery
	spOpAsOf
	spIntern
	spInsert
	spDelete
	spExecute
	spSnapshot
	spAsOfExecute
	spRelease
	spSetup
	spVerify
	spRecovery
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.write", "op.query", "op.asof",
	"hierarchy.intern", "core.insert", "core.delete", "core.query.execute",
	"core.version.snapshot", "core.version.asof_execute", "core.version.release",
	"phase.setup", "phase.verify", "phase.recovery",
}

// spanLayer names the layer a span's self time is charged to. A client
// op's own self time is the benchmark's generator and bookkeeping.
var spanLayer = [numSpanNames]string{
	"loadgen", "loadgen", "loadgen",
	"hierarchy", "core.insert", "core.delete", "core.query",
	"core.version", "core.version", "core.version",
	"setup", "verify", "core.recovery",
}

const noTag = 0xff

// span is one timed call. Start and End are nanoseconds since the
// tracer's epoch; Parent indexes the same recorder (-1 for a root).
type span struct {
	Name   spanName
	Tag    uint8 // query kind of query spans, noTag otherwise
	Parent int32
	Op     uint64 // client op id; 0 for phases
	Start  int64
	End    int64
}

type recorder struct {
	epoch  time.Time
	client int
	spans  []span
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name spanName, parent int32, op uint64, tag uint8) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Tag: tag, Parent: parent, Op: op, Start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
}

// tracer owns the recorders of one run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	recs  []*recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// recorder returns a fresh recorder for one goroutine; nil when t is nil.
func (t *tracer) recorder(client int) *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{epoch: t.epoch, client: client}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// durations returns the durations of every span named name (and tagged
// tag, unless tag is noTag).
func (t *tracer) durations(name spanName, tag uint8) *samples {
	s := &samples{}
	for _, r := range t.recs {
		for _, sp := range r.spans {
			if sp.Name == name && (tag == noTag || sp.Tag == tag) && sp.End > 0 {
				s.add(time.Duration(sp.End - sp.Start))
			}
		}
	}
	return s
}

// selfTime is one row of the self-time summary.
type selfTime struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	Share   float64 `json:"self_share_pct"`
}

// selfTimes charges each span its duration minus its children's, and sums
// per span name. Shares are of the client ops' total time, so phases are
// listed but not counted in the shares.
func (t *tracer) selfTimes() []selfTime {
	var total, self [numSpanNames]int64
	var count [numSpanNames]int
	for _, r := range t.recs {
		child := make([]int64, len(r.spans))
		for _, sp := range r.spans {
			if sp.Parent >= 0 && sp.End > 0 {
				child[sp.Parent] += sp.End - sp.Start
			}
		}
		for i, sp := range r.spans {
			if sp.End == 0 {
				continue
			}
			d := sp.End - sp.Start
			total[sp.Name] += d
			self[sp.Name] += d - child[i]
			count[sp.Name]++
		}
	}
	var opTotal int64
	for n := spOpWrite; n <= spRelease; n++ {
		opTotal += self[n]
	}
	var out []selfTime
	for n := spanName(0); n < numSpanNames; n++ {
		if count[n] == 0 {
			continue
		}
		st := selfTime{Name: spanNames[n], Layer: spanLayer[n], Count: count[n],
			TotalMS: float64(total[n]) / 1e6, SelfMS: float64(self[n]) / 1e6}
		if n <= spRelease {
			st.Share = 100 * ratio(float64(self[n]), float64(opTotal))
		}
		out = append(out, st)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// spanJSON is the on-disk form of one span.
type spanJSON struct {
	Client  int    `json:"client"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	Kind    string `json:"query_kind,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, r := range t.recs {
		for i, sp := range r.spans {
			js := spanJSON{Client: r.client, ID: int32(i), Parent: sp.Parent, Op: sp.Op,
				Name: spanNames[sp.Name], StartNS: sp.Start, EndNS: sp.End}
			if sp.Tag != noTag {
				js.Kind = queryKind(sp.Tag).String()
			}
			if err := enc.Encode(js); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// printSelfTimes renders the summary as an aligned table.
func printSelfTimes(w io.Writer, rows []selfTime) {
	fmt.Fprintf(w, "# per-layer self time (traced slices)\n")
	fmt.Fprintf(w, "# %-26s %-14s %8s %12s %12s %7s\n", "span", "layer", "count", "total_ms", "self_ms", "share%")
	for _, r := range rows {
		fmt.Fprintf(w, "# %-26s %-14s %8d %12.3f %12.3f %7.2f\n", r.Name, r.Layer, r.Count, r.TotalMS, r.SelfMS, r.Share)
	}
}

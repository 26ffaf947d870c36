package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies what a span times. Spans are recorded by the
// benchmark around its own calls into a layer's public entry points.
type spanName uint8

const (
	spCoreRead    spanName = iota // GetSnapshot + DerefSnapshot + ReleaseSnapshot
	spCoreStore                   // AllocRc + StoreMove (a PUT)
	spCoreClear                   // StoreMove of nil (a DEL)
	spArena                       // Pool.Alloc + Free (a write)
	spValsPut                     // TryPut + Free of the displaced ref (a write)
	spValsRead                    // AppendTo (a read)
	spRcdsGet                     // GetB
	spRcdsPut                     // PutB
	spRcdsDel                     // Delete
	spRcdsScan                    // ScanB
	spLeaseAcq                    // snaplease Acquire
	spLeaseRel                    // snaplease Release
	spCollGet                     // Get
	spCollGetAt                   // GetAt inside an MGET
	spCollPut                     // Put
	spCollDel                     // Delete
	spCollMGet                    // lease + GetAt per key + release
	spCollScan                    // lease + ScanAt per shard + release
	spServerBatch                 // one depth-16 batch over an in-memory pipe
	spLoopD1                      // one request over loopback TCP at depth 1
	spLoopD16                     // one depth-16 batch over loopback TCP
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.read", "core.store", "core.clear", "arena.alloc_free", "vals.put_free", "vals.read",
	"rcds.get", "rcds.put", "rcds.del", "rcds.scan", "snaplease.acquire", "snaplease.release",
	"collections.get", "collections.get_at", "collections.put", "collections.del", "collections.mget", "collections.scan",
	"server.batch", "loopback.d1", "loopback.d16",
}

// span is one timed call. Spans of one op share its op index; a child
// names its parent's id (0 = none).
type span struct {
	start, end int64
	id, parent uint32
	op         uint32
	name       spanName
	worker     uint8
}

// keptSpans bounds the spans one worker keeps per rung for the trace
// file; every span, kept or not, is summed into the per-name totals.
const keptSpans = 8192

// tracer records one worker's spans in memory. A nil *tracer records
// nothing, which is how the untraced passes run the same code.
type tracer struct {
	worker uint8
	nextID uint32
	kept   []span
	sum    [numSpanNames]int64
	count  [numSpanNames]int64
}

var epoch = time.Now()

func newTracer(worker int) *tracer {
	return &tracer{worker: uint8(worker), kept: make([]span, 0, keptSpans)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(epoch))
}

// id reserves a span id, for a parent whose children end before it.
func (t *tracer) id() uint32 {
	if t == nil {
		return 0
	}
	t.nextID++
	return t.nextID
}

// end closes the span started at start and returns its end time.
func (t *tracer) end(name spanName, start int64, id, parent, op uint32) int64 {
	if t == nil {
		return 0
	}
	e := int64(time.Since(epoch))
	t.sum[name] += e - start
	t.count[name]++
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, span{start: start, end: e, id: id, parent: parent, op: op, name: name, worker: t.worker})
	}
	return e
}

// spanTotals sums the per-name totals of a rung's tracers.
type spanTotals struct {
	sum, count [numSpanNames]int64
}

func (st *spanTotals) add(ts []*tracer) {
	for _, t := range ts {
		for n := range t.sum {
			st.sum[n] += t.sum[n]
			st.count[n] += t.count[n]
		}
	}
}

// mean is the mean duration of the named spans in ns (0 when none ran).
func (st *spanTotals) mean(names ...spanName) float64 {
	var sum, n int64
	for _, s := range names {
		sum += st.sum[s]
		n += st.count[s]
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// writeTrace writes every kept span as CSV, one rung after another.
func writeTrace(path string, rungs []string, kept [][]*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "rung,name,worker,op,id,parent,start_ns,end_ns")
	for i, ts := range kept {
		for _, t := range ts {
			for _, s := range t.kept {
				fmt.Fprintf(bw, "%s,%s,%d,%d,%d,%d,%d,%d\n", rungs[i], spanNames[s.name],
					s.worker, s.op, s.id, s.parent, s.start, s.end)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

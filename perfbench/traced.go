package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"cdrc/internal/obs"
)

// ladderPhases is the number of timed phases of the traced run, each
// given an equal share of --seconds: core, arena, vals, rcds,
// collections, server, loopback depth 1, loopback depth 16 untraced and
// traced.
const ladderPhases = 9

// probeMGets is how many MGETs each worker runs through the collections
// rung after the timed replay on a workload whose stream has none, so
// that the lease and MGET costs are measured on every workload.
const probeMGets = 4096

func nowSeconds() float64 { return float64(time.Since(epoch)) / 1e9 }

// rungRun is what one in-process rung measured.
type rungRun struct {
	ops     int64
	spans   spanTotals
	tracers []*tracer
}

// runRung populates r, replays the streams against it for d with every
// call traced, reads every key back and tears r down. around, when not
// nil, is called just before and just after the replay, with handles
// detached (so per-thread tallies have been flushed to obs).
func runRung(r *rung, sts []*stream, m *model, d time.Duration, res *result, around func(after bool)) (*rungRun, []*procWorker, error) {
	ws := newProcWorkers(sts, m, true)
	bracket := func(f func()) {
		if f != nil {
			f()
		}
	}
	bracket(r.attach)
	err := populateProc(ws, r.populate)
	bracket(r.detach)
	if err != nil {
		return nil, nil, fmt.Errorf("%s populate: %w", r.name, err)
	}
	if around != nil {
		around(false)
	}
	bracket(r.attach)
	replay(ws, d, math.MaxInt64, r.exec)
	bracket(r.detach)
	if around != nil {
		around(true)
	}
	rr := &rungRun{}
	for _, w := range ws {
		rr.ops += w.attempted
		rr.tracers = append(rr.tracers, w.t)
		res.count(&w.tally)
	}
	rr.spans.add(rr.tracers)
	return rr, ws, nil
}

func finishRung(r *rung, m *model, res *result) {
	if r.readBack != nil {
		res.fault(r.readBack(m))
	}
	res.fault(r.close())
}

// obsDelta is the change of obs counters and histograms between two
// snapshots.
type obsDelta struct{ before, after *obs.Report }

func (d obsDelta) counter(name string) float64 {
	return float64(d.after.Counter(name) - d.before.Counter(name))
}

// histCount is how many values the named histogram recorded.
func (d obsDelta) histCount(name string) float64 {
	return float64(d.after.Histograms[name].Count) - float64(d.before.Histograms[name].Count)
}

// histMean is the mean of the values the named histogram recorded, each
// taken at the middle of its power-of-two bucket.
func (d obsDelta) histMean(name string) float64 {
	prev := map[uint64]uint64{}
	for _, b := range d.before.Histograms[name].Buckets {
		prev[b.Lo] = b.Count
	}
	var n, sum float64
	for _, b := range d.after.Histograms[name].Buckets {
		c := float64(b.Count - prev[b.Lo])
		n += c
		sum += c * float64(b.Lo+b.Hi) / 2
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// runTraced is the per-layer ladder. Every rung replays the same
// streams for the same time; obs is enabled for the counts.
func runTraced(cfg config, res *result) error {
	wl := cfg.wl
	sts := genStreams(wl, cfg.seed)
	m := newModel(wl, newValGen(wl, cfg.seed))
	share := seconds(cfg.seconds, 1.0/ladderPhases)
	obs.Enable()
	defer obs.Disable()

	var rungNames []string
	var kept [][]*tracer
	keep := func(name string, ts []*tracer) {
		rungNames = append(rungNames, name)
		kept = append(kept, ts)
	}

	// core, arena, vals, rcds.
	layers := []*rung{coreRung(wl.keys), arenaRung(wl.keys), valsRung(wl.keys), rcdsRung(wl.keys)}
	runs := make([]*rungRun, len(layers))
	for i, r := range layers {
		rr, _, err := runRung(r, sts, m, share, res, nil)
		if err != nil {
			return err
		}
		finishRung(r, m, res)
		layers[i] = nil
		release()
		runs[i] = rr
		keep(r.name, rr.tracers)
	}
	core, ar, vl, rc := runs[0], runs[1], runs[2], runs[3]
	res.set("core.snapshot_read_ns", "ns", core.spans.mean(spCoreRead))
	res.set("core.store_ns", "ns", core.spans.mean(spCoreStore))
	res.set("arena.alloc_free_ns", "ns", ar.spans.mean(spArena))
	res.set("vals.put_free_ns", "ns", vl.spans.mean(spValsPut))
	res.set("vals.read_ns", "ns", vl.spans.mean(spValsRead))
	res.set("rcds.get_ns", "ns", rc.spans.mean(spRcdsGet))
	res.set("rcds.put_ns", "ns", rc.spans.mean(spRcdsPut))
	res.set("rcds.del_ns", "ns", rc.spans.mean(spRcdsDel))

	// collections over snaplease, with obs and allocation counts
	// bracketing the replay.
	cr, store := collectionsRung(wl.keys)
	var od obsDelta
	var m0, m1 uint64
	coll, ws, err := runRung(cr, sts, m, share, res, func(after bool) {
		if after {
			m1 = mallocs()
			od.after = obs.Snapshot()
		} else {
			od.before = obs.Snapshot()
			m0 = mallocs()
		}
	})
	if err != nil {
		return err
	}
	keep(cr.name, coll.tracers)
	lease := coll
	if wl.share[vMGet] == 0 {
		lease = probeMGet(store, ws, sts)
		keep("collections.probe", lease.tracers)
		for _, w := range ws {
			res.count(&w.tally)
		}
	}
	finishRung(cr, m, res)
	cr, store, ws = nil, nil, nil // drop the rung so release can return its memory
	release()
	ops := float64(coll.ops)
	res.set("core.rc_biased_per_op", "count", od.counter("core.rc.biased")/ops)
	res.set("core.rc_shared_per_op", "count", od.counter("core.rc.shared")/ops)
	res.set("acqret.retire_per_op", "count", od.counter("acqret.retire")/ops)
	res.set("acqret.eject_per_op", "count", od.counter("acqret.eject")/ops)
	res.set("acqret.scan_per_op", "count", od.counter("acqret.scan")/ops)
	res.set("arena.alloc_per_op", "count", od.counter("arena.alloc")/ops)
	res.set("vals.alloc_per_op", "count", od.counter("vals.alloc")/ops)
	res.set("collections.allocs_per_op", "count", float64(m1-m0)/ops)
	res.set("collections.get_ns", "ns", coll.spans.mean(spCollGet, spCollGetAt))
	res.set("collections.put_ns", "ns", coll.spans.mean(spCollPut))
	res.set("collections.del_ns", "ns", coll.spans.mean(spCollDel))
	res.set("collections.mget_ns", "ns", lease.spans.mean(spCollMGet))
	lsp := &lease.spans
	res.set("snaplease.acquire_release_ns", "ns",
		float64(lsp.sum[spLeaseAcq]+lsp.sum[spLeaseRel])/float64(max(lsp.count[spLeaseAcq], 1)))
	var collTop int64
	for _, n := range []spanName{spCollGet, spCollPut, spCollDel, spCollMGet, spCollScan} {
		collTop += coll.spans.sum[n]
	}
	collPerOp := float64(collTop) / ops

	// server over an in-memory pipe: parse → queue → worker → render.
	// This rung and the loopback rung run on wireProcs Ps, as the
	// untraced pass does.
	restore := onWireProcs()
	defer restore()
	ls, err := startPipe(wl, sts, m)
	if err != nil {
		return fmt.Errorf("server populate: %w", err)
	}
	ts := newTracers()
	od = obsDelta{before: obs.Snapshot()}
	m0 = mallocs()
	elS, err := closedLoop(ls.ws, 16, share, nil, ts, spServerBatch)
	if err != nil {
		return errors.Join(fmt.Errorf("server pass: %w", err), ls.stop())
	}
	m1 = mallocs()
	od.after = obs.Snapshot()
	srvOps := float64(attempted(ls.ws))
	ls.count(res)
	res.fault(ls.finish())
	ls = nil
	release()
	keep("server", ts)
	pipe := procNs(elS, srvOps)
	res.set("server.pipe_ns_per_op", "ns", pipe)
	res.set("server.self_ns_per_op", "ns", pipe-collPerOp)
	res.set("server.pipe_allocs_per_op", "count", float64(m1-m0)/srvOps)
	res.set("server.replies_per_flush", "count", od.counter("server.reply")/od.histCount("server.flush.batch"))
	res.set("server.queue_depth_mean", "count", od.histMean("server.queue.depth"))

	// loopback TCP: depth 1 traced, then depth 16 untraced (obs off)
	// and traced; the two depth-16 phases give the tracing overhead.
	ls, err = startLoopback(wl, sts, m)
	if err != nil {
		return fmt.Errorf("loopback populate: %w", err)
	}
	t1 := newTracers()
	if _, err := closedLoop(ls.ws[:1], 1, share, nil, t1[:1], spLoopD1); err != nil {
		return errors.Join(fmt.Errorf("loopback depth-1 pass: %w", err), ls.stop())
	}
	obs.Disable()
	n0 := attempted(ls.ws)
	elU, err := closedLoop(ls.ws, 16, share, nil, nil, 0)
	if err != nil {
		return errors.Join(fmt.Errorf("loopback depth-16 pass: %w", err), ls.stop())
	}
	untraced := float64(attempted(ls.ws)-n0) / elU.Seconds()
	obs.Enable()
	t16 := newTracers()
	n0 = attempted(ls.ws)
	elT, err := closedLoop(ls.ws, 16, share, nil, t16, spLoopD16)
	if err != nil {
		return errors.Join(fmt.Errorf("loopback depth-16 pass: %w", err), ls.stop())
	}
	n16 := attempted(ls.ws) - n0
	traced := float64(n16) / elT.Seconds()
	ls.count(res)
	res.fault(ls.finish())
	keep("loopback.d1", t1[:1])
	keep("loopback.d16", t16)
	var l1 spanTotals
	l1.add(t1[:1])
	d16 := procNs(elT, float64(n16))
	res.set("loopback.d1_ns_per_op", "ns", l1.mean(spLoopD1))
	res.set("loopback.d16_ns_per_op", "ns", d16)
	res.set("loopback.self_ns_per_op", "ns", d16-pipe)
	res.set("trace.overhead_ratio", "ratio", untraced/traced)

	if err := writeTrace(cfg.tracePath, rungNames, kept); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// procNs is the processor time one request of a depth-16 wire phase
// costs: the phase's wall time on its wireProcs Ps over its requests.
// Both connections keep a batch in flight all the time, so their batch
// spans overlap and their sum would count each request's share of the
// P twice. The collections rung's per-op span time is processor time
// too, since each of its goroutines has a P of its own; so the
// differences between the rungs are self times.
func procNs(el time.Duration, ops float64) float64 {
	return float64(el.Nanoseconds()) * wireProcs / ops
}

// probeMGet runs probeMGets read-only MGETs per worker through the
// collections rung, eight keys each taken in stream order.
func probeMGet(s *collStore, ws []*procWorker, sts []*stream) *rungRun {
	for i, w := range ws {
		ps := &stream{}
		for j := 0; j < probeMGets; j++ {
			ps.ops = append(ps.ops, op{verb: vMGet, key: uint32(len(ps.multi))})
			for q := 0; q < mgetKeys; q++ {
				ps.multi = append(ps.multi, sts[i].ops[(j*mgetKeys+q)%len(sts[i].ops)].key)
			}
		}
		w.st, w.pos, w.t = ps, 0, newTracer(i)
		w.tally = tally{}
	}
	s.attach()
	replay(ws, time.Minute, probeMGets, s.exec)
	s.detach()
	rr := &rungRun{}
	for _, w := range ws {
		rr.ops += w.attempted
		rr.tracers = append(rr.tracers, w.t)
	}
	rr.spans.add(rr.tracers)
	return rr
}

// release returns the memory of torn-down layers to the system before
// the next layer is built, so the run's peak holds one layer, not all.
func release() { debug.FreeOSMemory() }

func newTracers() []*tracer {
	ts := make([]*tracer, numWorkers)
	for i := range ts {
		ts[i] = newTracer(i)
	}
	return ts
}

func attempted(ws []*wireWorker) int64 {
	var n int64
	for _, w := range ws {
		n += w.attempted
	}
	return n
}

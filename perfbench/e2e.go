package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"

	"cdrc/internal/server"
)

// setupRounds is how many times a run builds and populates the server;
// setup_s is their median and the last one serves the passes.
const setupRounds = 3

// Shares of --seconds given to each timed phase of the untraced run.
const (
	loopRounds = 8
	shareD16   = 0.45
	shareD1    = 0.30
	shareMap   = 0.25
)

// serverConfig is the server every pass drives: 2 shards served by 2
// workers, sized for a 2-CPU host. QueueDepth and MaxPipeline keep their
// defaults, which admit two depth-16 connections without -BUSY.
func serverConfig(wl workload, ln net.Listener) server.Config {
	return server.Config{Shards: 2, Workers: 2, ExpectedKeys: wl.keys, Listener: ln}
}

// wireProcs is GOMAXPROCS while the server and its load share the
// process: from a server's set-up to its teardown. The load and the
// server's readers, workers and writers hand every request from
// goroutine to goroutine. With one P for each CPU, each hand-off that
// finds the other P idle wakes a sleeping thread on the other vCPU. On
// a 2-vCPU VM on a shared host, that wake-up's latency swung get-small's
// depth-1 round trip between 21 and 31 us, and its depth-16 batch
// between 55 and 95 us, from one server to the next. On one P the same
// hand-offs are goroutine switches, so the wire passes measure the
// request path's own work (parse, queue, execute, render, and the
// kernel's loopback), at about the throughput two Ps gave there. The
// in-process passes keep one P per CPU.
const wireProcs = 1

// onWireProcs sets GOMAXPROCS to wireProcs and returns the function that
// restores it.
func onWireProcs() (restore func()) {
	prev := runtime.GOMAXPROCS(wireProcs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// liveServer is a running server with one connection per worker.
type liveServer struct {
	srv *server.Server
	ws  []*wireWorker
}

// startServer builds a server on ln, connects every worker through dial
// and populates the keyspace.
func startServer(wl workload, ln net.Listener, dial func() (net.Conn, error), sts []*stream, m *model) (*liveServer, error) {
	srv, err := server.New(serverConfig(wl, ln))
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv}
	for i := range sts {
		c, err := dial()
		if err != nil {
			ls.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		ls.ws = append(ls.ws, newWireWorker(i, c, sts[i], m))
	}
	if err := populateWire(ls.ws, wl.keys); err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

func startLoopback(wl workload, sts []*stream, m *model) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return startServer(wl, ln, func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }, sts, m)
}

func startPipe(wl workload, sts []*stream, m *model) (*liveServer, error) {
	ln := newPipeListener()
	return startServer(wl, ln, ln.Dial, sts, m)
}

// finish checks that every connection owes no reply, reads every key
// back against the model, and stops the server.
func (ls *liveServer) finish() error {
	var errs []error
	for _, w := range ls.ws {
		errs = append(errs, w.wc.ping())
	}
	if err := errors.Join(errs...); err != nil {
		return errors.Join(err, ls.stop())
	}
	return errors.Join(ls.ws[0].readBack(len(ls.ws[0].m.committed)), ls.stop())
}

// stop closes the connections and the server and checks that teardown
// reclaimed every node and lease.
func (ls *liveServer) stop() error {
	for _, w := range ls.ws {
		w.wc.c.Close()
	}
	err := ls.srv.Close()
	if n := ls.srv.Live(); n != 0 {
		err = errors.Join(err, fmt.Errorf("server: Live() = %d after Close", n))
	}
	if n := ls.srv.ActiveLeases(); n != 0 {
		err = errors.Join(err, fmt.Errorf("server: %d leases held after Close", n))
	}
	return err
}

func (ls *liveServer) count(res *result) {
	for _, w := range ls.ws {
		res.count(&w.tally)
		w.tally = tally{}
	}
}

// runUntraced is the end-to-end pass. It builds and populates the
// server setupRounds times (setup_s is the median); each server then
// serves loopRounds rounds of depth-16 and depth-1 load, alternating,
// before its keys are read back and it is torn down, all on wireProcs
// Ps. A run reports the median of its rounds' throughputs and of their
// latency medians. On a shared host the rounds of one run fall into a
// fast and a slow mode (snap-read's depth-1 medians read about 22 or
// about 32 us), and a quarter or more of them can be fast. A quartile
// then lands on whichever mode holds that quarter of the run, while
// the median stays with the mode that holds most of it. The p99s pool
// every sample; they spread too widely from run to run on a shared
// 2-CPU host to hold a bound, so they are printed as reference figures
// outside the result's metrics. Last, the same mix runs in-process
// through collections, on setupRounds stores of loopRounds rounds each.
// obs stays disabled and no span is recorded.
func runUntraced(cfg config, res *result) error {
	wl := cfg.wl
	sts := genStreams(wl, cfg.seed)
	m := newModel(wl, newValGen(wl, cfg.seed))
	rounds := setupRounds * loopRounds
	d16 := seconds(cfg.seconds, shareD16/float64(rounds))
	d1 := seconds(cfg.seconds, shareD1/float64(rounds))
	dm := seconds(cfg.seconds, shareMap/float64(rounds))

	heapBase := heapInuse()
	var setups, heaps, tput, bp50, rp50 []float64
	var all16, all1 []int64
	restore := onWireProcs()
	defer restore()
	for i := 0; i < setupRounds; i++ {
		t0 := nowSeconds()
		ls, err := startLoopback(wl, sts, m)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, nowSeconds()-t0)
		for r := 0; r < loopRounds; r++ {
			lat16 := make([][]int64, numWorkers)
			el, err := closedLoop(ls.ws, 16, d16, lat16, nil, 0)
			if err != nil {
				return errors.Join(fmt.Errorf("depth-16 pass: %w", err), ls.stop())
			}
			b := slices.Concat(lat16...)
			tput = append(tput, float64(len(b)*16)/el.Seconds())
			bp50 = append(bp50, float64(percentile(b, 0.50)))
			all16 = append(all16, b...)
			lat1 := make([][]int64, 1)
			if _, err := closedLoop(ls.ws[:1], 1, d1, lat1, nil, 0); err != nil {
				return errors.Join(fmt.Errorf("depth-1 pass: %w", err), ls.stop())
			}
			rp50 = append(rp50, float64(percentile(lat1[0], 0.50)))
			all1 = append(all1, lat1[0]...)
		}
		for _, w := range ls.ws {
			res.fault(w.wc.ping())
		}
		res.fault(ls.ws[0].readBack(wl.keys))
		heaps = append(heaps, (float64(heapInuse())-float64(heapBase))/float64(m.residentBytes()))
		ls.count(res)
		res.fault(ls.stop())
		release()
	}
	res.set("setup_s", "s", percentile(setups, 0.5))
	res.set("heap_bytes_per_user_byte", "B/B", percentile(heaps, 0.5))
	res.set("throughput_ops_s", "1/s", percentile(tput, 0.5))
	res.set("batch_p50_us", "us", percentile(bp50, 0.5)/1e3)
	res.ref("batch_p99_us", "us", float64(percentile(all16, 0.99))/1e3)
	res.set("rtt_p50_us", "us", percentile(rp50, 0.5)/1e3)
	res.ref("rtt_p99_us", "us", float64(percentile(all1, 0.99))/1e3)

	restore()

	var mops []float64
	for i := 0; i < setupRounds; i++ {
		store := newCollStore(wl.keys)
		pws := newProcWorkers(sts, m, false)
		store.attach()
		if err := populateProc(pws, store.put); err != nil {
			return fmt.Errorf("map populate: %w", err)
		}
		var n0 int64
		for r := 0; r < loopRounds; r++ {
			el := replay(pws, dm, math.MaxInt64, store.exec)
			var n1 int64
			for _, w := range pws {
				n1 += w.attempted
			}
			mops = append(mops, float64(n1-n0)/el.Seconds())
			n0 = n1
		}
		store.detach()
		for _, w := range pws {
			res.count(&w.tally)
		}
		res.fault(store.readBack(m))
		res.fault(store.close())
		release()
	}
	res.set("map_ops_s", "1/s", percentile(mops, 0.5))
	return nil
}

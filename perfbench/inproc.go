package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cdrc/collections"
	"cdrc/internal/server"
	"cdrc/internal/snaplease"
)

// procWorker replays one worker's stream against an in-process layer.
// Calls are synchronous, so a read of an own key must return exactly
// the committed write (no writes are in flight).
type procWorker struct {
	id   int
	st   *stream
	m    *model
	t    *tracer // nil on untraced passes
	pos  int
	vbuf []byte
	dst  []byte
	keys []uint32
	sort []uint32
	tally
}

func newProcWorkers(sts []*stream, m *model, traced bool) []*procWorker {
	ws := make([]*procWorker, len(sts))
	for i := range ws {
		ws[i] = &procWorker{id: i, st: sts[i], m: m}
		if traced {
			ws[i].t = newTracer(i)
		}
	}
	return ws
}

func (w *procWorker) check(err error) {
	if err != nil {
		w.mismatch(err)
	}
}

// value renders write seq of key into the worker's scratch.
func (w *procWorker) value(key, seq uint32) []byte {
	w.vbuf = w.m.g.fill(w.vbuf, key, seq)
	return w.vbuf
}

// write issues the next write of an own key and commits it once applied.
func (w *procWorker) write(key uint32, put bool, apply func(seq uint32) error) {
	wr := write{key: key, seq: w.m.issue(key), put: put}
	if err := apply(wr.seq); err != nil {
		w.failed++ // refused (arena backpressure); never applied
		return
	}
	w.m.commit(wr)
}

// execFn runs op o (stream index i) for worker w.
type execFn func(w *procWorker, i uint32, o op)

// replay runs every worker over its stream until d has passed (checked
// every replayRound ops) or it has run maxOps ops, and returns the wall
// time from start to the last worker's stop.
func replay(ws []*procWorker, d time.Duration, maxOps int64, exec execFn) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(0); n < maxOps; {
				for j := 0; j < replayRound; j++ {
					exec(w, uint32(w.pos), w.st.ops[w.pos])
					w.pos = (w.pos + 1) % len(w.st.ops)
				}
				w.attempted += replayRound
				n += replayRound
				if time.Now().After(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

const replayRound = 64

// populateProc writes write 1 of every key, each worker its own keys.
func populateProc(ws []*procWorker, put func(w *procWorker, key uint32, v []byte) error) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w.id; k < len(w.m.committed); k += numWorkers {
				if err := put(w, uint32(k), w.value(uint32(k), 1)); err != nil {
					errs[i] = fmt.Errorf("populate key %d: %w", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	ws[0].m.populated()
	return nil
}

// collStore is the storage layer built the way internal/server builds
// its shards: versioned collections.Map shards over one snaplease.Pool,
// keys routed by server.KeyShard.
type collStore struct {
	leases *snaplease.Pool
	shards []*collections.Map
	hs     [][]*collections.MapHandle // [worker][shard]
}

const storeShards = 2

func newCollStore(keys int) *collStore {
	s := &collStore{leases: snaplease.NewPool(0)}
	for i := 0; i < storeShards; i++ {
		s.shards = append(s.shards, collections.NewVersionedMap(keys/storeShards, numWorkers+2, s.leases))
	}
	return s
}

func (s *collStore) attach() {
	s.hs = make([][]*collections.MapHandle, numWorkers)
	for w := range s.hs {
		for _, m := range s.shards {
			s.hs[w] = append(s.hs[w], m.Attach())
		}
	}
}

func (s *collStore) detach() {
	for _, hs := range s.hs {
		for _, h := range hs {
			h.Close()
		}
	}
	s.hs = nil
}

func (s *collStore) h(w *procWorker, key uint32) *collections.MapHandle {
	return s.hs[w.id][server.KeyShard(uint64(key), storeShards)]
}

func (s *collStore) put(w *procWorker, key uint32, v []byte) error {
	var err error
	w.dst, _, err = s.h(w, key).Put(uint64(key), v, w.dst[:0])
	return err
}

// exec runs one op through the collections API, checking every answer
// and timing every call when w is traced.
func (s *collStore) exec(w *procWorker, i uint32, o op) {
	t := w.t
	switch o.verb {
	case vGet:
		st := t.now()
		var found bool
		w.dst, found = s.h(w, o.key).Get(uint64(o.key), w.dst[:0])
		t.end(spCollGet, st, t.id(), 0, i)
		w.check(w.m.checkRead(w.id, o.key, found, w.dst, nil))
	case vPut:
		w.write(o.key, true, func(seq uint32) error {
			v := w.value(o.key, seq)
			st := t.now()
			old, existed, err := s.h(w, o.key).Put(uint64(o.key), v, w.dst[:0])
			t.end(spCollPut, st, t.id(), 0, i)
			w.dst = old
			if err == nil {
				w.check(w.m.checkRead(w.id, o.key, existed, old, nil))
			}
			return err
		})
	case vDel:
		w.write(o.key, false, func(uint32) error {
			st := t.now()
			hit, err := s.h(w, o.key).Delete(uint64(o.key))
			t.end(spCollDel, st, t.id(), 0, i)
			if err == nil {
				w.check(w.m.checkSeq(w.id, o.key, hit, anySeq, nil))
			}
			return err
		})
	case vMGet:
		id := t.id()
		st := t.now()
		l, ok := s.lease(w, id, i)
		if !ok {
			w.failed++
			return
		}
		for _, k := range w.st.multi[o.key : o.key+mgetKeys] {
			gs := t.now()
			var found bool
			w.dst, found = s.h(w, k).GetAt(l.TS(), uint64(k), w.dst[:0])
			t.end(spCollGetAt, gs, t.id(), id, i)
			w.check(w.m.checkRead(w.id, k, found, w.dst, nil))
		}
		s.release(w, &l, id, i)
		t.end(spCollMGet, st, id, 0, i)
	case vScan:
		id := t.id()
		st := t.now()
		l, ok := s.lease(w, id, i)
		if !ok {
			w.failed++
			return
		}
		limit := w.m.scanLimit
		w.keys = w.keys[:0]
		for sh := range s.shards {
			if len(w.keys) >= limit {
				break
			}
			s.hs[w.id][sh].ScanAt(l.TS(), limit-len(w.keys), func(k uint64, v []byte) bool {
				w.keys = append(w.keys, uint32(k))
				w.check(w.m.checkRead(w.id, uint32(k), true, v, nil))
				return true
			})
		}
		s.release(w, &l, id, i)
		t.end(spCollScan, st, id, 0, i)
		w.check(checkScanKeys(w.keys, limit, &w.sort))
	}
}

func (s *collStore) lease(w *procWorker, parent, i uint32) (snaplease.Lease, bool) {
	st := w.t.now()
	l, ok := s.leases.Acquire(w.id)
	w.t.end(spLeaseAcq, st, w.t.id(), parent, i)
	return l, ok
}

func (s *collStore) release(w *procWorker, l *snaplease.Lease, parent, i uint32) {
	st := w.t.now()
	l.Release(w.id)
	w.t.end(spLeaseRel, st, w.t.id(), parent, i)
}

// readBack checks every key against the committed model state exactly.
func (s *collStore) readBack(m *model) error {
	h := make([]*collections.MapHandle, len(s.shards))
	for i, sh := range s.shards {
		h[i] = sh.Attach()
		defer h[i].Close()
	}
	var dst []byte
	for k := range m.committed {
		var found bool
		dst, found = h[server.KeyShard(uint64(k), storeShards)].Get(uint64(k), dst[:0])
		if err := m.checkFinal(uint32(k), found, dst); err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
	}
	return nil
}

// close tears the store down and checks that nothing stays allocated.
func (s *collStore) close() error {
	for round := 0; round < 16; round++ {
		for _, m := range s.shards {
			h := m.Attach()
			h.Clear()
			h.Close()
		}
		if s.live() == 0 {
			break
		}
	}
	if n := s.live(); n != 0 {
		return fmt.Errorf("collections: %d nodes and value slabs still live after teardown", n)
	}
	if n := s.leases.Active(); n != 0 {
		return fmt.Errorf("collections: %d snapshot leases still held after teardown", n)
	}
	return nil
}

func (s *collStore) live() int64 {
	var n int64
	for _, m := range s.shards {
		n += m.LiveNodes() + m.ValueSlabsLive()
	}
	return n
}

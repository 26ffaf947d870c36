package main

import (
	"fmt"

	"cdrc/internal/arena"
	"cdrc/internal/core"
	"cdrc/internal/ds"
	"cdrc/internal/ds/rcds"
	"cdrc/internal/vals"
)

// A rung is one layer of the ladder, driven through its public entry
// points: populate writes write 1 of a key, exec runs one op of the
// stream, attach/detach bracket a pass with per-worker state, and close
// tears the layer down, checking that it holds nothing afterwards.
type rung struct {
	name     string
	attach   func()
	detach   func()
	populate func(w *procWorker, key uint32, v []byte) error
	exec     execFn
	readBack func(m *model) error
	close    func() error
}

// coreNode is the object one core cell holds: the write it stands for.
type coreNode struct{ key, seq uint32 }

// coreRung keeps one core.AtomicRcPtr cell per key. A GET is
// GetSnapshot + DerefSnapshot + ReleaseSnapshot; a PUT allocates a node
// (AllocRc, the allocation-free form of NewRc) and StoreMoves it in; a
// DEL StoreMoves nil. MGET is eight reads and a scan reads the first
// limit keys.
func coreRung(keys int) *rung {
	d := core.NewDomain[coreNode](core.Config[coreNode]{MaxProcs: numWorkers + 2})
	cells := make([]core.AtomicRcPtr, keys)
	ths := make([]*core.Thread[coreNode], numWorkers)
	read := func(w *procWorker, k, i, parent uint32) {
		th, t := ths[w.id], w.t
		st := t.now()
		s := th.GetSnapshot(&cells[k])
		var n coreNode
		found := !s.IsNil()
		if found {
			n = *th.DerefSnapshot(s)
		}
		th.ReleaseSnapshot(&s)
		t.end(spCoreRead, st, t.id(), parent, i)
		if found && n.key != k {
			w.mismatch(fmt.Errorf("core: cell %d holds a node of key %d", k, n.key))
			return
		}
		w.check(w.m.checkSeq(w.id, k, found, n.seq, nil))
	}
	store := func(w *procWorker, k, seq uint32) {
		p, n := ths[w.id].AllocRc()
		n.key, n.seq = k, seq
		ths[w.id].StoreMove(&cells[k], p)
	}
	return &rung{
		name:   "core",
		attach: func() { attachAll(ths, d.Attach) },
		detach: func() { detachAll(ths, (*core.Thread[coreNode]).Detach) },
		populate: func(w *procWorker, k uint32, _ []byte) error {
			store(w, k, 1)
			return nil
		},
		exec: func(w *procWorker, i uint32, o op) {
			t := w.t
			switch o.verb {
			case vGet:
				read(w, o.key, i, 0)
			case vPut:
				w.write(o.key, true, func(seq uint32) error {
					st := t.now()
					store(w, o.key, seq)
					t.end(spCoreStore, st, t.id(), 0, i)
					return nil
				})
			case vDel:
				w.write(o.key, false, func(uint32) error {
					st := t.now()
					ths[w.id].StoreMove(&cells[o.key], core.NilRcPtr)
					t.end(spCoreClear, st, t.id(), 0, i)
					return nil
				})
			case vMGet:
				for _, k := range w.st.multi[o.key : o.key+mgetKeys] {
					read(w, k, i, 0)
				}
			case vScan:
				for k := 0; k < w.m.scanLimit; k++ {
					read(w, uint32(k), i, 0)
				}
			}
		},
		readBack: func(m *model) error {
			th := d.Attach()
			defer th.Detach()
			for k := range cells {
				s := th.GetSnapshot(&cells[k])
				found, seq := !s.IsNil(), uint32(0)
				if found {
					seq = th.DerefSnapshot(s).seq
				}
				th.ReleaseSnapshot(&s)
				if st := m.committed[k]; found != (st&1 == 1) || (found && seq != st>>1) {
					return fmt.Errorf("core read-back: key %d holds write %d (present %v), want %d (present %v)",
						k, seq, found, st>>1, st&1 == 1)
				}
			}
			return nil
		},
		close: func() error {
			th := d.Attach()
			for k := range cells {
				th.StoreMove(&cells[k], core.NilRcPtr)
			}
			for i := 0; i < 8 && d.Live() != 0; i++ {
				th.Flush()
			}
			th.Detach()
			if n := d.Live(); n != 0 {
				return fmt.Errorf("core: %d objects still live after teardown", n)
			}
			return nil
		},
	}
}

// arenaRung keeps one arena slot per key: each write allocates the new
// slot and frees the one it displaces (Pool.Alloc + Free). Reads do not
// reach this layer.
func arenaRung(keys int) *rung {
	p := arena.NewPool[[64]byte](numWorkers + 2)
	slots := make([]arena.Handle, keys)
	write := func(w *procWorker, i uint32, o op) {
		w.write(o.key, o.verb == vPut, func(uint32) error {
			st := w.t.now()
			h := p.Alloc(w.id)
			p.Free(w.id, slots[o.key])
			slots[o.key] = h
			w.t.end(spArena, st, w.t.id(), 0, i)
			return nil
		})
	}
	return &rung{
		name: "arena",
		populate: func(w *procWorker, k uint32, _ []byte) error {
			slots[k] = p.Alloc(w.id)
			return nil
		},
		exec: func(w *procWorker, i uint32, o op) {
			if o.verb == vPut || o.verb == vDel {
				write(w, i, o)
			}
		},
		close: func() error {
			for k, h := range slots {
				p.Free(k%numWorkers, h)
			}
			if n := p.Live(); n != 0 {
				return fmt.Errorf("arena: %d slots still live after teardown", n)
			}
			return nil
		},
	}
}

// valsRung keeps one value-slab ref per key: a PUT is TryPut of the new
// bytes plus Free of the displaced ref, a DEL frees, and a read is
// AppendTo. The layer has no reader protection of its own (the map
// above supplies it), so a worker reads only keys it owns: a read of
// another worker's key reads the worker's own neighbour key instead.
func valsRung(keys int) *rung {
	vp := vals.New(vals.Config{MaxProcs: numWorkers + 2})
	refs := make([]uint64, keys)
	read := func(w *procWorker, k, i uint32) {
		k = k - uint32(owner(k)) + uint32(w.id)
		if int(k) >= keys {
			return
		}
		st := w.t.now()
		w.dst = vp.AppendTo(w.dst[:0], refs[k])
		w.t.end(spValsRead, st, w.t.id(), 0, i)
		w.check(w.m.checkRead(w.id, k, refs[k] != 0, w.dst, nil))
	}
	return &rung{
		name: "vals",
		populate: func(w *procWorker, k uint32, v []byte) error {
			ref, err := vp.TryPut(w.id, v)
			refs[k] = ref
			return err
		},
		exec: func(w *procWorker, i uint32, o op) {
			t := w.t
			switch o.verb {
			case vGet:
				read(w, o.key, i)
			case vPut:
				w.write(o.key, true, func(seq uint32) error {
					v := w.value(o.key, seq)
					st := t.now()
					ref, err := vp.TryPut(w.id, v)
					if err == nil {
						vp.Free(w.id, refs[o.key])
						refs[o.key] = ref
					}
					t.end(spValsPut, st, t.id(), 0, i)
					return err
				})
			case vDel:
				w.write(o.key, false, func(uint32) error {
					vp.Free(w.id, refs[o.key])
					refs[o.key] = 0
					return nil
				})
			case vMGet:
				for _, k := range w.st.multi[o.key : o.key+mgetKeys] {
					read(w, k, i)
				}
			case vScan:
				for k := 0; k < w.m.scanLimit; k++ {
					read(w, uint32(k), i)
				}
			}
		},
		readBack: func(m *model) error {
			var dst []byte
			for k, ref := range refs {
				dst = vp.AppendTo(dst[:0], ref)
				if err := m.checkFinal(uint32(k), ref != 0, dst); err != nil {
					return fmt.Errorf("vals read-back: %w", err)
				}
			}
			return nil
		},
		close: func() error {
			for k, ref := range refs {
				vp.Free(k%numWorkers, ref)
			}
			if n := vp.Live(); n != 0 {
				return fmt.Errorf("vals: %d slabs still live after teardown", n)
			}
			return nil
		},
	}
}

// rcdsRung is a plain byte-valued rcds.HashTable driven through
// AttachMap: GetB, PutB and Delete; MGET is eight GetBs and a scan is
// ScanB.
func rcdsRung(keys int) *rung {
	ht := rcds.NewHashTable(keys, numWorkers+2, true)
	ht.EnableByteValues("")
	ths := make([]ds.MapThread, numWorkers)
	get := func(w *procWorker, k, i uint32) {
		st := w.t.now()
		var found bool
		w.dst, found = ths[w.id].GetB(uint64(k), w.dst[:0])
		w.t.end(spRcdsGet, st, w.t.id(), 0, i)
		w.check(w.m.checkRead(w.id, k, found, w.dst, nil))
	}
	live := func() int64 { return ht.LiveNodes() + ht.ByteValues().Live() }
	return &rung{
		name:   "rcds",
		attach: func() { attachAll(ths, ht.AttachMap) },
		detach: func() { detachAll(ths, ds.MapThread.Detach) },
		populate: func(w *procWorker, k uint32, v []byte) error {
			_, _, err := ths[w.id].PutB(uint64(k), v, nil)
			return err
		},
		exec: func(w *procWorker, i uint32, o op) {
			t := w.t
			switch o.verb {
			case vGet:
				get(w, o.key, i)
			case vPut:
				w.write(o.key, true, func(seq uint32) error {
					v := w.value(o.key, seq)
					st := t.now()
					old, existed, err := ths[w.id].PutB(uint64(o.key), v, w.dst[:0])
					t.end(spRcdsPut, st, t.id(), 0, i)
					w.dst = old
					if err == nil {
						w.check(w.m.checkRead(w.id, o.key, existed, old, nil))
					}
					return err
				})
			case vDel:
				w.write(o.key, false, func(uint32) error {
					st := t.now()
					hit := ths[w.id].Delete(uint64(o.key))
					t.end(spRcdsDel, st, t.id(), 0, i)
					w.check(w.m.checkSeq(w.id, o.key, hit, anySeq, nil))
					return nil
				})
			case vMGet:
				for _, k := range w.st.multi[o.key : o.key+mgetKeys] {
					get(w, k, i)
				}
			case vScan:
				w.keys = w.keys[:0]
				st := t.now()
				ths[w.id].ScanB(w.m.scanLimit, func(k uint64, v []byte) bool {
					w.keys = append(w.keys, uint32(k))
					w.check(w.m.checkRead(w.id, uint32(k), true, v, nil))
					return true
				})
				t.end(spRcdsScan, st, t.id(), 0, i)
				w.check(checkScanKeys(w.keys, w.m.scanLimit, &w.sort))
			}
		},
		readBack: func(m *model) error {
			th := ht.AttachMap()
			defer th.Detach()
			var dst []byte
			for k := range m.committed {
				var found bool
				dst, found = th.GetB(uint64(k), dst[:0])
				if err := m.checkFinal(uint32(k), found, dst); err != nil {
					return fmt.Errorf("rcds read-back: %w", err)
				}
			}
			return nil
		},
		close: func() error {
			for i := 0; i < 16 && live() != 0; i++ {
				th := ht.AttachMap()
				th.Clear()
				th.Detach()
			}
			if n := live(); n != 0 {
				return fmt.Errorf("rcds: %d nodes and slabs still live after teardown", n)
			}
			return nil
		},
	}
}

// collectionsRung is the storage layer as the server builds it (see
// collStore).
func collectionsRung(keys int) (*rung, *collStore) {
	s := newCollStore(keys)
	return &rung{
		name:     "collections",
		attach:   s.attach,
		detach:   s.detach,
		populate: s.put,
		exec:     s.exec,
		readBack: s.readBack,
		close:    s.close,
	}, s
}

func attachAll[T any](ths []T, attach func() T) {
	for i := range ths {
		ths[i] = attach()
	}
}

func detachAll[T any](ths []T, detach func(T)) {
	for _, th := range ths {
		detach(th)
	}
}

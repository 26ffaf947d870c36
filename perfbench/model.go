package main

import (
	"fmt"
	"slices"
)

// model is the benchmark's own record of every key's state, kept apart
// from anything the program under test answers. Each key's committed
// word (seq<<1 | present) is the last write acknowledged for it; issued
// is the last write sent. Only a key's owner worker writes or consults
// its entries while a pass runs; whole-keyspace reads happen between
// passes.
type model struct {
	g         *valGen
	committed []uint32
	issued    []uint32
	scanLimit int
}

func newModel(w workload, g *valGen) *model {
	return &model{g: g, committed: make([]uint32, w.keys), issued: make([]uint32, w.keys), scanLimit: w.scanLimit}
}

// populated records that every key holds write 1, as after set-up.
func (m *model) populated() {
	for k := range m.committed {
		m.committed[k] = 1<<1 | 1
		m.issued[k] = 1
	}
}

// issue allocates the next write seq of key.
func (m *model) issue(key uint32) uint32 {
	m.issued[key]++
	return m.issued[key]
}

func (m *model) commit(w write) {
	st := w.seq << 1
	if w.put {
		st |= 1
	}
	m.committed[w.key] = st
}

// write is one write of a batch in flight: not yet acknowledged, so a
// read sent with it may see it or not.
type write struct {
	key  uint32
	seq  uint32
	put  bool
	shed bool // answered BUSY: never applied
}

// checkRead checks what worker w read for key while the writes in pend
// were in flight: found reports presence and v the bytes. Any read must
// carry a valid tag for its key; the rest is checkSeq.
func (m *model) checkRead(w int, key uint32, found bool, v []byte, pend []write) error {
	var seq uint32
	if found {
		s, err := m.g.check(key, v)
		if err != nil {
			return err
		}
		seq = s
	}
	return m.checkSeq(w, key, found, seq, pend)
}

// anySeq stands for a hit whose write is not reported, as for a DEL's
// hit flag. Real writes count from 1.
const anySeq = 0

// checkSeq checks that worker w saw write seq of key (or a miss) while
// the writes in pend were in flight. A read of an own key must return
// the committed write or one of the pending writes to it: no older than
// the last acknowledged before the read was sent, and no newer than the
// last sent. Other workers' keys are checked by tag alone.
func (m *model) checkSeq(w int, key uint32, found bool, seq uint32, pend []write) error {
	if int(key) >= len(m.committed) {
		return fmt.Errorf("key %d outside the keyspace", key)
	}
	if owner(key) != w {
		return nil
	}
	st := m.committed[key]
	present := st&1 == 1
	if found && present && (seq == anySeq || st>>1 == seq) {
		return nil
	}
	if !found && !present {
		return nil
	}
	for _, p := range pend {
		if p.key == key && !p.shed && p.put == found && (seq == anySeq || p.seq == seq) {
			return nil
		}
	}
	if found {
		return fmt.Errorf("key %d: read write %d, but write %d is committed (present %v) and %d is the last sent",
			key, seq, st>>1, present, m.issued[key])
	}
	return fmt.Errorf("key %d: read a miss, but write %d is committed and present", key, st>>1)
}

// checkFinal checks a read made at quiescence against the committed
// state exactly.
func (m *model) checkFinal(key uint32, found bool, v []byte) error {
	st := m.committed[key]
	if !found {
		if st&1 == 1 {
			return fmt.Errorf("key %d: read back a miss, want write %d", key, st>>1)
		}
		return nil
	}
	seq, err := m.g.check(key, v)
	if err != nil {
		return err
	}
	if st&1 == 0 || seq != st>>1 {
		return fmt.Errorf("key %d: read back write %d, want write %d (present %v)", key, seq, st>>1, st&1 == 1)
	}
	return nil
}

// checkScanKeys checks the keys of one scan reply, whose rows were
// each checked with checkRead: no key twice, no more rows than the
// limit, and at least one row (the keyspace is never empty). scratch is
// reused across calls so the check allocates nothing once warm.
func checkScanKeys(keys []uint32, limit int, scratch *[]uint32) error {
	if len(keys) > limit {
		return fmt.Errorf("scan returned %d rows, limit %d", len(keys), limit)
	}
	if len(keys) == 0 {
		return fmt.Errorf("scan of a populated keyspace returned no rows")
	}
	s := append((*scratch)[:0], keys...)
	slices.Sort(s)
	*scratch = s
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return fmt.Errorf("scan returned key %d twice", s[i])
		}
	}
	return nil
}

// residentBytes sums the key and value bytes the model says are stored.
func (m *model) residentBytes() int64 {
	var n int64
	for k, st := range m.committed {
		if st&1 == 1 {
			n += 8 + int64(m.g.size(uint32(k), st>>1))
		}
	}
	return n
}

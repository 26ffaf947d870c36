package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// tally counts one worker's requests. failed counts BUSY, -ERR and
// mismatched replies; mismatched alone means the program answered
// wrongly, and firstErr keeps the first such answer.
type tally struct {
	attempted, failed, mismatched int64
	firstErr                      error
}

func (t *tally) mismatch(err error) {
	t.failed++
	t.mismatched++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// wireWorker replays one worker's stream over one connection in
// closed-loop batches and checks every reply against the model.
type wireWorker struct {
	id   int
	wc   *wireConn
	st   *stream
	m    *model
	pos  int
	pend []write
	vbuf []byte
	keys []uint32
	sort []uint32
	tally
}

func newWireWorker(id int, c net.Conn, st *stream, m *model) *wireWorker {
	return &wireWorker{id: id, wc: newWireConn(c), st: st, m: m}
}

// batch sends the next depth ops of the stream as one pipelined write,
// reads exactly one reply per request, and checks each. A non-nil error
// means the reply stream broke (a reply missing, late or malformed) and
// the connection can no longer be used.
func (w *wireWorker) batch(depth int) error {
	w.pend = w.pend[:0]
	start := w.pos
	for i := 0; i < depth; i++ {
		o := w.st.ops[w.pos]
		w.pos = (w.pos + 1) % len(w.st.ops)
		switch o.verb {
		case vGet:
			w.wc.key("GET ", o.key)
		case vPut:
			seq := w.m.issue(o.key)
			w.vbuf = w.m.g.fill(w.vbuf, o.key, seq)
			w.wc.put(o.key, w.vbuf)
			w.pend = append(w.pend, write{key: o.key, seq: seq, put: true})
		case vDel:
			w.wc.key("DEL ", o.key)
			w.pend = append(w.pend, write{key: o.key, seq: w.m.issue(o.key)})
		case vMGet:
			w.wc.mget(w.st.multi[o.key : o.key+mgetKeys])
		case vScan:
			w.wc.scan(w.m.scanLimit)
		}
	}
	if err := w.wc.send(); err != nil {
		return err
	}
	pi := 0
	for i := 0; i < depth; i++ {
		o := w.st.ops[(start+i)%len(w.st.ops)]
		w.attempted++
		var err error
		switch o.verb {
		case vGet:
			var found bool
			var v []byte
			if found, v, err = w.wc.valued("+NIL", "+VAL"); err == nil {
				err = w.m.checkRead(w.id, o.key, found, v, w.pend)
			}
		case vPut:
			var found bool
			var v []byte
			if found, v, err = w.wc.valued("+NEW", "+OLD"); err == nil {
				err = w.m.checkRead(w.id, o.key, found, v, w.pend)
			} else if isRefusal(err) {
				w.pend[pi].shed = true
			}
			pi++
		case vDel:
			var l []byte
			if l, err = w.wc.line(); err == nil {
				switch string(l) {
				case "+DEL 1", "+DEL 0":
					err = w.m.checkSeq(w.id, o.key, l[5] == '1', anySeq, w.pend)
				default:
					err = fmt.Errorf("unexpected reply %q to DEL", l)
				}
			} else if isRefusal(err) {
				w.pend[pi].shed = true
			}
			pi++
		case vMGet:
			err = w.mgetReply(w.st.multi[o.key:o.key+mgetKeys], w.m.checkRead)
		case vScan:
			err = w.scanReply()
		}
		switch {
		case err == nil:
		case errors.Is(err, errBusy):
			w.failed++
		case isRefusal(err):
			w.mismatch(err)
		default:
			var pe *protoError
			if errors.As(err, &pe) {
				return err
			}
			w.mismatch(err) // a wrong answer; the stream is still in sync
		}
	}
	for _, p := range w.pend {
		if !p.shed {
			w.m.commit(p)
		}
	}
	return nil
}

// rowCheck checks one MGET row: checkRead while a pass runs, checkFinal
// (through a wrapper) at read-back.
type rowCheck func(w int, key uint32, found bool, v []byte, pend []write) error

// mgetReply reads one MGET reply: one row per requested key, in request
// order.
func (w *wireWorker) mgetReply(keys []uint32, check rowCheck) error {
	n, err := w.wc.rowHeader()
	if err != nil {
		return err
	}
	if n != len(keys) {
		return protoErrorf("MGET of %d keys answered %d rows", len(keys), n)
	}
	var first error
	for _, want := range keys {
		k, found, v, err := w.wc.row()
		if err != nil {
			return protoErrorf("MGET row: %v", err)
		}
		if first == nil && k != want {
			first = fmt.Errorf("MGET row for key %d where key %d was due", k, want)
		}
		if first == nil {
			first = check(w.id, k, found, v, w.pend)
		}
	}
	return first
}

// scanReply reads one SNAPSCAN reply and checks its rows.
func (w *wireWorker) scanReply() error {
	n, err := w.wc.rowHeader()
	if err != nil {
		return err
	}
	w.keys = w.keys[:0]
	var first error
	for i := 0; i < n; i++ {
		k, found, v, err := w.wc.row()
		if err != nil || !found {
			return protoErrorf("SNAPSCAN row %d: %v", i, err)
		}
		w.keys = append(w.keys, k)
		if first == nil {
			first = w.m.checkRead(w.id, k, true, v, w.pend)
		}
	}
	if first != nil {
		return first
	}
	return checkScanKeys(w.keys, w.m.scanLimit, &w.sort)
}

// protoError is a broken reply stream: the connection is out of sync.
type protoError struct{ msg string }

func (e *protoError) Error() string { return e.msg }

func protoErrorf(format string, args ...any) error {
	return &protoError{fmt.Sprintf(format, args...)}
}

// isRefusal reports an error reply (-BUSY or -ERR): one line, so the
// stream stays in sync.
func isRefusal(err error) bool {
	var re *refusal
	return errors.Is(err, errBusy) || errors.As(err, &re)
}

// populateWire writes write 1 of every key, each worker its own keys,
// in batches of popDepth PUTs.
func populateWire(ws []*wireWorker, keys int) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.populate(keys)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	ws[0].m.populated()
	return nil
}

const popDepth = 32

func (w *wireWorker) populate(keys int) error {
	n := 0
	for k := w.id; k < keys; k += numWorkers {
		w.vbuf = w.m.g.fill(w.vbuf, uint32(k), 1)
		w.wc.put(uint32(k), w.vbuf)
		if n++; n == popDepth || k+numWorkers >= keys {
			if err := w.wc.send(); err != nil {
				return err
			}
			for ; n > 0; n-- {
				l, err := w.wc.line()
				if err != nil {
					return fmt.Errorf("populate: %w", err)
				}
				if string(l) != "+NEW" {
					return fmt.Errorf("populate: reply %q to a first PUT", l)
				}
			}
		}
	}
	return nil
}

// readBack reads every key back with depth-16 batches of MGETs and
// checks each against the committed model state exactly.
func (w *wireWorker) readBack(keys int) error {
	final := func(_ int, k uint32, found bool, v []byte, _ []write) error {
		return w.m.checkFinal(k, found, v)
	}
	all := make([]uint32, mgetKeys*16)
	for base := 0; base < keys; base += len(all) {
		n := min(len(all), keys-base)
		for i := 0; i < n; i++ {
			all[i] = uint32(base + i)
		}
		for i := 0; i < n; i += mgetKeys {
			w.wc.mget(all[i:min(i+mgetKeys, n)])
		}
		if err := w.wc.send(); err != nil {
			return err
		}
		for i := 0; i < n; i += mgetKeys {
			if err := w.mgetReply(all[i:min(i+mgetKeys, n)], final); err != nil {
				return fmt.Errorf("read-back: %w", err)
			}
		}
	}
	return nil
}

// closedLoop runs every worker for d, each sending its next batch of
// depth ops as soon as the previous one is answered, and records every
// batch's round trip in ns. It returns the wall time from start to the
// last worker's stop.
func closedLoop(ws []*wireWorker, depth int, d time.Duration, lat [][]int64, ts []*tracer, name spanName) (time.Duration, error) {
	errs := make([]error, len(ws))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t *tracer
			if ts != nil {
				t = ts[i]
			}
			for {
				t0 := time.Now()
				s := t.now()
				op := uint32(w.pos)
				if err := w.batch(depth); err != nil {
					errs[i] = err
					return
				}
				t.end(name, s, t.id(), 0, op)
				t1 := time.Now()
				if lat != nil {
					lat[i] = append(lat[i], int64(t1.Sub(t0)))
				}
				if t1.After(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

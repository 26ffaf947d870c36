package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// wireConn is the benchmark's pipelined client for the server's wire
// protocol. It renders the five verbs of the op stream (the server
// package's Batch covers only GET/PUT/DEL) and reads replies into reused
// scratch, so a warm round trip allocates nothing.
type wireConn struct {
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	body []byte
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

func (wc *wireConn) key(verb string, k uint32) {
	wc.out = append(wc.out, verb...)
	wc.out = strconv.AppendUint(wc.out, uint64(k), 10)
	wc.out = append(wc.out, '\n')
}

func (wc *wireConn) put(k uint32, v []byte) {
	wc.out = append(wc.out, "PUT "...)
	wc.out = strconv.AppendUint(wc.out, uint64(k), 10)
	wc.out = append(wc.out, ' ')
	wc.out = strconv.AppendInt(wc.out, int64(len(v)), 10)
	wc.out = append(wc.out, '\n')
	wc.out = append(wc.out, v...)
	wc.out = append(wc.out, '\n')
}

func (wc *wireConn) mget(ks []uint32) {
	wc.out = append(wc.out, "MGET"...)
	for _, k := range ks {
		wc.out = append(wc.out, ' ')
		wc.out = strconv.AppendUint(wc.out, uint64(k), 10)
	}
	wc.out = append(wc.out, '\n')
}

func (wc *wireConn) scan(limit int) {
	wc.out = append(wc.out, "SNAPSCAN "...)
	wc.out = strconv.AppendInt(wc.out, int64(limit), 10)
	wc.out = append(wc.out, '\n')
}

// send writes every rendered request in one write. A reply that does not
// arrive within replyTimeout fails the read instead of hanging the run.
func (wc *wireConn) send() error {
	if err := wc.c.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return err
	}
	_, err := wc.c.Write(wc.out)
	wc.out = wc.out[:0]
	return err
}

const replyTimeout = 10 * time.Second

// errBusy is a -BUSY reply: the request was shed and had no effect.
var errBusy = errors.New("busy")

// line reads one reply line without its LF. -BUSY comes back as errBusy
// and -ERR as an error; the slice is valid until the next read.
func (wc *wireConn) line() ([]byte, error) {
	l, err := wc.br.ReadSlice('\n')
	if err != nil {
		return nil, protoErrorf("reply missing: %v", err)
	}
	l = l[:len(l)-1]
	if len(l) > 0 && l[0] == '-' {
		if string(l) == "-BUSY" {
			return nil, errBusy
		}
		return nil, &refusal{string(l)}
	}
	return l, nil
}

// refusal is an -ERR reply: one line, so the stream stays in sync.
type refusal struct{ line string }

func (e *refusal) Error() string { return "error reply " + e.line }

// valueBody reads an n-byte body and its LF into the reused scratch.
func (wc *wireConn) valueBody(n int) ([]byte, error) {
	if cap(wc.body) < n+1 {
		wc.body = make([]byte, n+1)
	}
	b := wc.body[:n+1]
	if _, err := io.ReadFull(wc.br, b); err != nil {
		return nil, protoErrorf("value body: %v", err)
	}
	if b[n] != '\n' {
		return nil, protoErrorf("value body not LF-terminated")
	}
	return b[:n], nil
}

// tagged parses "<tag> <n>".
func tagged(l []byte, tag string) (int, bool) {
	if len(l) <= len(tag)+1 || string(l[:len(tag)]) != tag || l[len(tag)] != ' ' {
		return 0, false
	}
	n, err := strconv.Atoi(string(l[len(tag)+1:]))
	return n, err == nil && n >= 0
}

// valued reads a reply that is either missTag or "<hitTag> <n>" plus
// body, as GET (+NIL/+VAL) and PUT (+NEW/+OLD) answer.
func (wc *wireConn) valued(missTag, hitTag string) (found bool, v []byte, err error) {
	l, err := wc.line()
	if err != nil {
		return false, nil, err
	}
	if string(l) == missTag {
		return false, nil, nil
	}
	n, ok := tagged(l, hitTag)
	if !ok {
		return false, nil, protoErrorf("unexpected reply %q", l)
	}
	v, err = wc.valueBody(n)
	return err == nil, v, err
}

// rowHeader reads "*<n>".
func (wc *wireConn) rowHeader() (int, error) {
	l, err := wc.line()
	if err != nil {
		return 0, err
	}
	if len(l) < 2 || l[0] != '*' {
		return 0, protoErrorf("unexpected reply %q, want a row header", l)
	}
	n, err := strconv.Atoi(string(l[1:]))
	if err != nil || n < 0 {
		return 0, protoErrorf("bad row header %q", l)
	}
	return n, nil
}

// row reads one "<key> <len>" row and its body, or a "<key> -" miss row
// (MGET only).
func (wc *wireConn) row() (key uint32, found bool, v []byte, err error) {
	l, err := wc.line()
	if err != nil {
		return 0, false, nil, err
	}
	i := 0
	for i < len(l) && l[i] != ' ' {
		i++
	}
	k, err1 := strconv.ParseUint(string(l[:i]), 10, 32)
	if err1 != nil || i == len(l) {
		return 0, false, nil, protoErrorf("bad row %q", l)
	}
	if string(l[i+1:]) == "-" {
		return uint32(k), false, nil, nil
	}
	n, err := strconv.Atoi(string(l[i+1:]))
	if err != nil || n < 0 {
		return 0, false, nil, protoErrorf("bad row %q", l)
	}
	v, err = wc.valueBody(n)
	return uint32(k), err == nil, v, err
}

// ping sends PING and expects +PONG as the very next reply: a surplus
// reply left over from earlier requests shows up here.
func (wc *wireConn) ping() error {
	wc.out = append(wc.out, "PING\n"...)
	if err := wc.send(); err != nil {
		return err
	}
	l, err := wc.line()
	if err != nil {
		return err
	}
	if string(l) != "+PONG" {
		return protoErrorf("surplus reply %q where +PONG was due", l)
	}
	return nil
}

// pipeListener is an in-memory net.Listener: Dial hands the server one
// end of a net.Pipe, so requests go through parse → queue → worker →
// render with no socket.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) Dial() (net.Conn, error) {
	srv, cli := net.Pipe()
	select {
	case l.conns <- srv:
		return cli, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

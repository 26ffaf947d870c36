package main

import (
	"bufio"
	"errors"
	"math"
	"math/rand/v2"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

var testWorkload = workload{
	name: "test", keys: 64, minVal: 16, maxVal: 64, scanLimit: 4,
	share: [numVerbs]float64{vGet: 0.5, vPut: 0.3, vDel: 0.1, vMGet: 0.05, vScan: 0.05},
}

// hangUp, as an answer, makes the fake server close the connection.
const hangUp = "\x00hang up"

// fakeServer answers each request line on c with whatever answer
// returns (nil drops the reply), and closes c when the client goes or an
// answer says hangUp. Replies go out from their own goroutine, as in the
// real server: net.Pipe is unbuffered, so a reader that also wrote would
// block against a client still writing its batch.
func fakeServer(c net.Conn, answer func(req string) []string) {
	out := make(chan string, 64)
	go func() {
		for r := range out {
			if r == hangUp {
				break
			}
			if _, err := c.Write([]byte(r)); err != nil {
				break
			}
		}
		c.Close()
		for range out {
		}
	}()
	defer close(out)
	br := bufio.NewReader(c)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		req := strings.TrimSuffix(line, "\n")
		if f := strings.Fields(req); f[0] == "PUT" {
			n, _ := strconv.Atoi(f[2])
			if _, err := br.Discard(n + 1); err != nil {
				return
			}
		}
		for _, r := range answer(req) {
			out <- r
		}
	}
}

// valReply renders a +VAL reply carrying write seq of key, with one byte
// flipped at flip (-1 for none).
func valReply(g *valGen, tag string, key, seq uint32, flip int) string {
	v := g.fill(nil, key, seq)
	if flip >= 0 {
		v[flip] ^= 0xff
	}
	return tag + " " + strconv.Itoa(len(v)) + "\n" + string(v) + "\n"
}

// newFakeWorker connects worker 0, with every key populated at write 1,
// to a fake server and replays ops.
func newFakeWorker(t *testing.T, ops []op, answer func(g *valGen, req string) []string) *wireWorker {
	t.Helper()
	g := newValGen(testWorkload, 7)
	m := newModel(testWorkload, g)
	m.populated()
	cli, srv := net.Pipe()
	go fakeServer(srv, func(req string) []string { return answer(g, req) })
	t.Cleanup(func() { cli.Close() })
	return newWireWorker(0, cli, &stream{ops: ops}, m)
}

func TestPlantedWrongByte(t *testing.T) {
	for _, flip := range []int{0, 9, 20} {
		w := newFakeWorker(t, []op{{vGet, 2}}, func(g *valGen, req string) []string {
			return []string{valReply(g, "+VAL", 2, 1, flip)}
		})
		if err := w.batch(1); err != nil {
			t.Fatalf("flip %d: batch: %v", flip, err)
		}
		if w.mismatched != 1 || w.failed != 1 {
			t.Errorf("flip %d: a wrong byte counted %d mismatches, %d failures; want 1, 1 (%v)",
				flip, w.mismatched, w.failed, w.firstErr)
		}
	}
}

func TestPlantedStaleValue(t *testing.T) {
	// Worker 0 writes key 2 (write 2, acknowledged), then reads it back;
	// the fake server answers the read with write 1.
	w := newFakeWorker(t, []op{{vPut, 2}, {vGet, 2}}, func(g *valGen, req string) []string {
		if strings.HasPrefix(req, "PUT") {
			return []string{valReply(g, "+OLD", 2, 1, -1)}
		}
		return []string{valReply(g, "+VAL", 2, 1, -1)}
	})
	for i := 0; i < 2; i++ {
		if err := w.batch(1); err != nil {
			t.Fatal(err)
		}
	}
	if w.mismatched != 1 {
		t.Fatalf("stale read counted %d mismatches, want 1 (%v)", w.mismatched, w.firstErr)
	}
	// A read sent in the same batch as the write may see either.
	w = newFakeWorker(t, []op{{vPut, 2}, {vGet, 2}}, func(g *valGen, req string) []string {
		if strings.HasPrefix(req, "PUT") {
			return []string{valReply(g, "+OLD", 2, 1, -1)}
		}
		return []string{valReply(g, "+VAL", 2, 1, -1)}
	})
	if err := w.batch(2); err != nil || w.mismatched != 0 {
		t.Fatalf("a read beside its write: err %v, %d mismatches (%v)", err, w.mismatched, w.firstErr)
	}
}

func TestPlantedNewerThanSent(t *testing.T) {
	w := newFakeWorker(t, []op{{vGet, 2}}, func(g *valGen, req string) []string {
		return []string{valReply(g, "+VAL", 2, 3, -1)}
	})
	if err := w.batch(1); err != nil {
		t.Fatal(err)
	}
	if w.mismatched != 1 {
		t.Fatalf("a write never sent was read without a mismatch")
	}
}

func TestPlantedLostReply(t *testing.T) {
	n := 0
	w := newFakeWorker(t, []op{{vGet, 2}, {vGet, 2}, {vGet, 2}}, func(g *valGen, req string) []string {
		switch n++; n {
		case 2:
			return nil // the lost reply
		case 3:
			return []string{valReply(g, "+VAL", 2, 1, -1), hangUp}
		}
		return []string{valReply(g, "+VAL", 2, 1, -1)}
	})
	err := w.batch(3)
	var pe *protoError
	if !errors.As(err, &pe) {
		t.Fatalf("three requests answered twice: batch returned %v, want a broken-stream error", err)
	}
}

func TestPlantedSurplusReply(t *testing.T) {
	w := newFakeWorker(t, []op{{vGet, 2}}, func(g *valGen, req string) []string {
		if req == "PING" {
			return []string{"+PONG\n"}
		}
		return []string{valReply(g, "+VAL", 2, 1, -1), valReply(g, "+VAL", 2, 1, -1)}
	})
	if err := w.batch(1); err != nil || w.mismatched != 0 {
		t.Fatalf("batch: %v, %d mismatches", err, w.mismatched)
	}
	if err := w.wc.ping(); err == nil {
		t.Fatal("a request answered twice passed the PING check")
	}
}

func TestPlantedDuplicateScanRow(t *testing.T) {
	for _, dup := range []bool{false, true} {
		w := newFakeWorker(t, []op{{vScan, 0}}, func(g *valGen, req string) []string {
			rows := []uint32{2, 3, 5}
			if dup {
				rows[2] = 2
			}
			out := []string{"*3\n"}
			for _, k := range rows {
				v := g.fill(nil, k, 1)
				out = append(out, strconv.Itoa(int(k))+" "+strconv.Itoa(len(v))+"\n"+string(v)+"\n")
			}
			return out
		})
		if err := w.batch(1); err != nil {
			t.Fatal(err)
		}
		if got := w.mismatched == 1; got != dup {
			t.Errorf("duplicate row %v: %d mismatches (%v)", dup, w.mismatched, w.firstErr)
		}
	}
}

func TestScanKeysLimit(t *testing.T) {
	var scratch []uint32
	if err := checkScanKeys([]uint32{1, 2, 3, 4, 5}, 4, &scratch); err == nil {
		t.Error("five rows passed a limit of four")
	}
	if err := checkScanKeys(nil, 4, &scratch); err == nil {
		t.Error("an empty scan of a populated keyspace passed")
	}
	if err := checkScanKeys([]uint32{9, 1, 4}, 4, &scratch); err != nil {
		t.Error(err)
	}
}

func TestPlantedMGetRowOrder(t *testing.T) {
	w := newFakeWorker(t, []op{{vMGet, 0}}, func(g *valGen, req string) []string {
		out := []string{"*8\n"}
		for i, f := range strings.Fields(req)[1:] {
			if i == 3 {
				f = "63"
			}
			out = append(out, f+" -\n")
		}
		return out
	})
	w.st.multi = []uint32{1, 3, 5, 7, 9, 11, 13, 15} // worker 1's keys: misses are plausible
	if err := w.batch(1); err != nil {
		t.Fatal(err)
	}
	if w.mismatched != 1 {
		t.Fatalf("an MGET row for an unrequested key counted %d mismatches", w.mismatched)
	}
}

// TestValGenRoundTrip checks that every rendered write checks back to
// its own seq and no other key's.
func TestValGenRoundTrip(t *testing.T) {
	g := newValGen(workload{minVal: 256, maxVal: 8192}, 3)
	for k := uint32(0); k < 50; k++ {
		for seq := uint32(1); seq < 20; seq++ {
			v := g.fill(nil, k, seq)
			if got, err := g.check(k, v); err != nil || got != seq {
				t.Fatalf("key %d seq %d: check = %d, %v", k, seq, got, err)
			}
			if _, err := g.check(k+1, v); err == nil {
				t.Fatalf("key %d's value passed as key %d's", k, k+1)
			}
		}
	}
}

func TestPercentileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(2000)
		xs := make([]int64, n)
		span := int64(1 + r.IntN(50)) // small spans force duplicates
		if trial%2 == 0 {
			span = 1 << 40
		}
		for i := range xs {
			xs[i] = r.Int64N(span)
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, p := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1, r.Float64()} {
			rank := int(math.Ceil(p*float64(n))) - 1
			want := sorted[max(0, rank)]
			if got := percentile(slices.Clone(xs), p); got != want {
				t.Fatalf("n %d p %v: percentile = %d, sort-based = %d", n, p, got, want)
			}
		}
	}
	if got := percentile[int64](nil, 0.5); got != 0 {
		t.Fatalf("percentile of no samples = %d", got)
	}
}

// TestEndToEndSmall drives a real server over an in-memory pipe and the
// collections layer in-process with the checkers on, and expects no
// failure and a clean teardown.
func TestEndToEndSmall(t *testing.T) {
	wl := testWorkload
	wl.keys = 1 << 10
	sts := genStreams(wl, 5)
	m := newModel(wl, newValGen(wl, 5))
	ls, err := startPipe(wl, sts, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		for _, w := range ls.ws {
			if err := w.batch(16); err != nil {
				ls.stop()
				t.Fatal(err)
			}
		}
	}
	if _, err := closedLoop(ls.ws, 16, 50*time.Millisecond, nil, newTracers(), spServerBatch); err != nil {
		t.Fatal(err)
	}
	res := &result{Metrics: map[string]metric{}, refs: map[string]metric{}}
	ls.count(res)
	if err := ls.finish(); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.problems) != 0 {
		t.Fatalf("server pass: %d failed: %v", res.Failed, res.problems)
	}

	r, _ := collectionsRung(wl.keys)
	rr, _, err := runRung(r, sts, m, 50*time.Millisecond, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	finishRung(r, m, res)
	if rr.ops == 0 || res.Failed != 0 || len(res.problems) != 0 {
		t.Fatalf("collections rung: %d ops, %d failed: %v", rr.ops, res.Failed, res.problems)
	}
}

// TestLadderRungsSmall runs every in-process rung briefly with checks on.
func TestLadderRungsSmall(t *testing.T) {
	wl := testWorkload
	wl.keys = 1 << 10
	sts := genStreams(wl, 9)
	m := newModel(wl, newValGen(wl, 9))
	res := &result{Metrics: map[string]metric{}, refs: map[string]metric{}}
	for _, r := range []*rung{coreRung(wl.keys), arenaRung(wl.keys), valsRung(wl.keys), rcdsRung(wl.keys)} {
		rr, _, err := runRung(r, sts, m, 20*time.Millisecond, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		finishRung(r, m, res)
		if rr.ops == 0 || res.Failed != 0 || len(res.problems) != 0 {
			t.Fatalf("%s: %d ops, %d failed: %v", r.name, rr.ops, res.Failed, res.problems)
		}
	}
}

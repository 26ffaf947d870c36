package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
)

// verb is one request kind of the op stream.
type verb uint8

const (
	vGet verb = iota
	vPut
	vDel
	vMGet
	vScan
	numVerbs
)

const (
	// mgetKeys is the fan-out of one MGET (the server's maximum).
	mgetKeys = 8
	// numWorkers is the number of load goroutines or connections on every
	// pass, sized to a 2-CPU host: the benchmark never runs more load
	// goroutines than this.
	numWorkers = 2
	// streamLen is the length of each worker's pre-generated op stream.
	// Passes replay it from the start and wrap around, so every run
	// issues the same ops in the same order.
	streamLen = 1 << 18
)

// workload is one traffic mix. Shares are fractions of requests; they
// sum to 1.
type workload struct {
	name      string
	keys      int     // keyspace [0, keys), all populated at set-up
	zipf      float64 // Zipf exponent of key choice; 0 selects uniform
	minVal    int     // value length range, inclusive
	maxVal    int
	share     [numVerbs]float64
	scanLimit int
}

var workloads = []workload{
	{
		name: "get-small", keys: 1 << 19, zipf: 0.99, minVal: 16, maxVal: 64,
		share: [numVerbs]float64{vGet: 0.94, vPut: 0.05, vDel: 0.01},
	},
	{
		name: "put-large", keys: 1 << 15, minVal: 256, maxVal: 8192,
		share: [numVerbs]float64{vGet: 0.30, vPut: 0.60, vDel: 0.10},
	},
	{
		name: "snap-read", keys: 1 << 18, zipf: 0.99, minVal: 16, maxVal: 64,
		share:     [numVerbs]float64{vMGet: 0.78, vPut: 0.20, vDel: 0.01, vScan: 0.01},
		scanLimit: 256,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// owner returns the one worker allowed to write key: writes are
// partitioned so that each key has exactly one writer, which is what
// lets a read of an own key be checked against an exact window.
func owner(key uint32) int { return int(key % numWorkers) }

// op is one request. For vMGet, key indexes the stream's multi array
// (mgetKeys keys from there); for vScan it is unused.
type op struct {
	verb verb
	key  uint32
}

// stream is one worker's op sequence.
type stream struct {
	ops   []op
	multi []uint32
}

// zipfGen draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta, for any
// theta in (0, 1) (Gray et al., "Quickly generating billion-record
// synthetic databases"); math/rand's Zipf requires an exponent above 1.
type zipfGen struct {
	n                   float64
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipf(n int, theta float64) *zipfGen {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfGen{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfGen) rank(u float64) int {
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// keyChooser maps draws to keys. Zipf ranks go through a seeded
// permutation, so the hot keys are spread over both shards and both
// writers instead of clustering at the low key numbers.
type keyChooser struct {
	keys int
	z    *zipfGen
	perm []uint32
}

func newKeyChooser(w workload, seed uint64) *keyChooser {
	kc := &keyChooser{keys: w.keys}
	if w.zipf > 0 {
		kc.z = newZipf(w.keys, w.zipf)
		kc.perm = make([]uint32, w.keys)
		for i := range kc.perm {
			kc.perm[i] = uint32(i)
		}
		r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		r.Shuffle(len(kc.perm), func(i, j int) { kc.perm[i], kc.perm[j] = kc.perm[j], kc.perm[i] })
	}
	return kc
}

func (kc *keyChooser) next(r *rand.Rand) uint32 {
	if kc.z == nil {
		return uint32(r.IntN(kc.keys))
	}
	return kc.perm[kc.z.rank(r.Float64())]
}

// nextOwned draws from the same distribution restricted to the keys
// worker w owns.
func (kc *keyChooser) nextOwned(r *rand.Rand, w int) uint32 {
	for {
		if k := kc.next(r); owner(k) == w {
			return k
		}
	}
}

// genStreams builds every worker's op stream from seed. The same seed
// gives the same streams.
func genStreams(w workload, seed uint64) []*stream {
	kc := newKeyChooser(w, seed)
	var cum [numVerbs]float64
	acc := 0.0
	for v := range cum {
		acc += w.share[v]
		cum[v] = acc
	}
	out := make([]*stream, numWorkers)
	for wk := range out {
		r := rand.New(rand.NewPCG(seed, uint64(wk)+1))
		s := &stream{ops: make([]op, streamLen)}
		for i := range s.ops {
			u := r.Float64() * acc
			v := vGet
			for v < numVerbs-1 && u >= cum[v] {
				v++
			}
			o := op{verb: v}
			switch v {
			case vPut, vDel:
				o.key = kc.nextOwned(r, wk)
			case vMGet:
				o.key = uint32(len(s.multi))
				for j := 0; j < mgetKeys; j++ {
					k := kc.next(r)
					for contains(s.multi[o.key:], k) {
						k = kc.next(r)
					}
					s.multi = append(s.multi, k)
				}
			case vScan:
			default:
				o.key = kc.next(r)
			}
			s.ops[i] = o
		}
		out[wk] = s
	}
	return out
}

func contains(ks []uint32, k uint32) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// valGen owns value contents: the bytes of write seq of key are a pure
// function of (key, seq, run seed). A value is an 8-byte key and an
// 8-byte seq followed by a slice of a seeded pad, so checking one is a
// header parse and one memory compare, independent of anything the
// program under test computed.
type valGen struct {
	min, max int
	pad      []byte
	salt     uint64
}

const padSpan = 1 << 16

func newValGen(w workload, seed uint64) *valGen {
	g := &valGen{min: w.minVal, max: w.maxVal, salt: seed*0x9e3779b97f4a7c15 + 1}
	g.pad = make([]byte, padSpan+w.maxVal)
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	for i := range g.pad {
		g.pad[i] = byte(r.Uint32())
	}
	return g
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (g *valGen) hash(key, seq uint32) uint64 {
	return mix(uint64(key)<<32 | uint64(seq) ^ g.salt)
}

// size is the length of write seq of key.
func (g *valGen) size(key, seq uint32) int {
	return g.min + int(g.hash(key, seq)%uint64(g.max-g.min+1))
}

// fill renders write seq of key into dst's capacity.
func (g *valGen) fill(dst []byte, key, seq uint32) []byte {
	h := g.hash(key, seq)
	n := g.min + int(h%uint64(g.max-g.min+1))
	if cap(dst) < n {
		dst = make([]byte, n, g.max)
	}
	dst = dst[:n]
	binary.LittleEndian.PutUint64(dst, uint64(key))
	binary.LittleEndian.PutUint64(dst[8:], uint64(seq))
	off := int(h>>32) % padSpan
	copy(dst[16:], g.pad[off:off+n-16])
	return dst
}

// check returns the write seq a value read for key carries, or an error
// when the bytes are not exactly some write of that key.
func (g *valGen) check(key uint32, v []byte) (uint32, error) {
	if len(v) < 16 {
		return 0, fmt.Errorf("key %d: value of %d bytes is shorter than its tag", key, len(v))
	}
	k := binary.LittleEndian.Uint64(v)
	s := binary.LittleEndian.Uint64(v[8:])
	if k != uint64(key) {
		return 0, fmt.Errorf("key %d: value tagged for key %d", key, k)
	}
	if s == 0 || s > math.MaxUint32 {
		return 0, fmt.Errorf("key %d: value carries invalid seq %d", key, s)
	}
	seq := uint32(s)
	h := g.hash(key, seq)
	if n := g.min + int(h%uint64(g.max-g.min+1)); n != len(v) {
		return 0, fmt.Errorf("key %d seq %d: %d bytes, want %d", key, seq, len(v), n)
	}
	off := int(h>>32) % padSpan
	if string(v[16:]) != string(g.pad[off:off+len(v)-16]) {
		return 0, fmt.Errorf("key %d seq %d: value bytes differ from the write", key, seq)
	}
	return seq, nil
}

// Command perfbench is the repository's benchmark: one seeded op stream
// per workload, driven end to end through an in-process internal/server
// over loopback TCP (the untraced pass, --trace 0), or replayed against
// each layer's public entry points from core up to the loopback socket
// (the traced ladder, --trace 1). Every reply is checked against the
// benchmark's own model. The last line of standard output is one JSON
// object: correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	refs     map[string]metric
	problems []string
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// ref records a reference figure: printed, but not one of the metrics.
func (r *result) ref(name, unit string, v float64) { r.refs[name] = metric{Value: v, Unit: unit} }

// fault records a correctness problem: the run still reports, with
// correct false.
func (r *result) fault(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

func (r *result) count(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	if t.mismatched > 0 {
		r.fault(fmt.Errorf("%d mismatched replies, first: %v", t.mismatched, t.firstErr))
	}
}

type config struct {
	wl        workload
	seed      uint64
	seconds   int
	tracePath string
}

func main() {
	name := flag.String("workload", "", "workload name (get-small, put-large, snap-read)")
	seed := flag.Uint64("seed", 1, "seed of the op stream and the value bytes")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: untraced end-to-end pass; 1: traced per-layer ladder")
	traceOut := flag.String("trace-out", "", "span file of the traced pass (default .bench_build/perfbench-trace-<workload>.csv)")
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload get-small|put-large|snap-read --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{wl: wl, seed: *seed, seconds: *seconds, tracePath: *traceOut}
	if cfg.tracePath == "" {
		cfg.tracePath = fmt.Sprintf(".bench_build/perfbench-trace-%s.csv", wl.name)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res := &result{Metrics: map[string]metric{}, refs: map[string]metric{}}
	if *trace == 1 {
		err = runTraced(cfg, res)
	} else {
		err = runUntraced(cfg, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for n, v := range res.refs {
		fmt.Printf("ref %s %.4f %s\n", n, v.Value, v.Unit)
	}
	fmt.Printf("workload %s seed %d: attempted %d, failed %d, correct %v\n",
		wl.name, cfg.seed, res.Attempted, res.Failed, res.Correct)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// heapInuse returns HeapInuse after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func seconds(s int, share float64) time.Duration {
	return time.Duration(float64(s) * share * float64(time.Second))
}

// Command perfbench is the repository's steady-state benchmark. It
// runs one workload through the public API of internal/core for a
// fixed host-time budget, checks every op's result, and prints every
// metric by name and unit, ending with one JSON result line.
//
//	go run . -workload p2p-java -seed 1 -seconds 10 -trace 0
//	go run . compare base.jsonl cand.jsonl
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its constructor; tiny shrinks
// the job for smoke tests.
var workloads = map[string]func(seed uint64, tiny bool) workload{
	"p2p-java":  func(s uint64, t bool) workload { return newP2PJava(s, t) },
	"kv-1m":     func(s uint64, t bool) workload { return newKVService(s, t) },
	"coll-1024": func(s uint64, t bool) workload { return newCollMix(s, t) },
	"lossy-8":   func(s uint64, t bool) workload { return newLossy8(s, t) },
}

// opts is one benchmark invocation.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tiny     bool   // shrink the workload (smoke tests)
	spans    string // traced span output path ("" = none)
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: p2p-java, kv-1m, coll-1024, lossy-8")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	o.traced = trace == 1
	if o.traced {
		// Relative to the repository root the benchmark runs from.
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	res, err := bench(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// width is the engine and GOMAXPROCS width: the host's CPUs, capped at
// 2 so the numbers measure the simulator rather than the scheduler and
// stay comparable across hosts.
func width() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

// bench runs one invocation. The first round runs the engine serially
// (one worker) as the determinism reference and to warm the process;
// the measured rounds follow at full width until the budget is spent.
// A traced invocation splits its budget between untraced and traced
// rounds. Every round must reproduce the reference digest.
func bench(o opts, out io.Writer) (result, error) {
	runtime.GOMAXPROCS(width())
	wl := workloads[o.workload](o.seed, o.tiny)
	res := result{Metrics: map[string]metricValue{}}

	var all []*round
	play := func(workers int, traced bool) *round {
		// Every round starts from a collected heap with its free memory
		// returned to the OS, as a fresh process would: set-up pays for
		// faulting in its JVMs whatever the earlier rounds left behind.
		runtime.GC()
		debug.FreeOSMemory()
		r := newRound(wl, workers, traced)
		r.run()
		all = append(all, r)
		return r
	}
	repeat := func(budget float64, minRounds int, traced bool) []*round {
		var rs []*round
		end := time.Now().Add(time.Duration(budget * float64(time.Second)))
		for len(rs) < minRounds || time.Now().Before(end) {
			r := play(width(), traced)
			rs = append(rs, r)
			if r.err != nil {
				break
			}
		}
		return rs
	}

	ref := play(1, false)
	var plain, traced []*round
	if ref.err == nil {
		if o.traced {
			plain = repeat(o.seconds/2, 2, false)
			traced = repeat(o.seconds/2, 1, true)
		} else {
			plain = repeat(o.seconds, 3, false)
		}
	}

	var firstErr error
	want := ref.digest
	for i, r := range all {
		res.Attempted += int64(r.warm + r.steady)
		res.Failed += r.failed.Load()
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("round %d: %w", i, r.err)
		}
		if r.failMsg != "" && firstErr == nil {
			firstErr = fmt.Errorf("round %d: %s", i, r.failMsg)
		}
		if r.err == nil && r.digest != want && firstErr == nil {
			firstErr = fmt.Errorf("round %d (workers=%d traced=%v): virtual digest %016x != reference %016x",
				i, r.workers, r.traced, r.digest, want)
		}
		if r.err == nil && r.flow != ref.flow && firstErr == nil {
			firstErr = fmt.Errorf("round %d: steady-window flow control %v != reference %v", i, r.flow, ref.flow)
		}
	}
	for i, r := range traced {
		if i > 0 && r.regDigest != traced[0].regDigest && firstErr == nil {
			firstErr = fmt.Errorf("traced round %d: metrics registry differs from traced round 0", i)
		}
	}
	if firstErr != nil {
		res.Failed = max(res.Failed, 1)
		return res, firstErr
	}

	fmt.Fprintf(out, "# perfbench %s seed=%d seconds=%g traced=%v workers=%d GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.traced, width(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "# rounds: reference(workers=1) + %d untraced + %d traced; %d ops per round (%d warm-up, %d steady); digest %016x\n",
		len(plain), len(traced), ref.warm+ref.steady, ref.warm, ref.steady, want)
	fmt.Fprintf(out, "# steady-window flow-control regime: %v\n", ref.flow)

	e2e, err := endToEndMetrics(ref, plain)
	if err != nil {
		return res, err
	}
	ff := ratio{float64(res.Failed), float64(res.Attempted)}
	e2e["fail_frac"] = reading{Value: ff.Value(), Base: ff.String() + " ops"}
	var defs []metricDef
	var vals map[string]reading
	if o.traced {
		defs, vals = perLayer, layerMetrics(plain, traced)
		if o.spans != "" {
			if err := writeSpans(o.spans, traced[0]); err != nil {
				return res, err
			}
		}
	} else {
		defs, vals = endToEnd, e2e
	}
	printTable(out, "end-to-end", append(endToEnd, metricDef{Name: "fail_frac", Unit: "ratio", Better: "lower"}), e2e)
	if o.traced {
		printTable(out, "per-layer (traced)", perLayer, vals)
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not computed", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v.Value, Unit: d.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func printTable(out io.Writer, title string, defs []metricDef, vals map[string]reading) {
	fmt.Fprintf(out, "# %s\n", title)
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(out, "%-38s %16.6g %-6s %-6s %s\n", d.Name, v.Value, d.Unit, d.Better, v.Base)
	}
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// compareMain compares two files of result lines (one JSON result per
// line, as printed by the benchmark) by each end-to-end metric's
// bound. It exits 1 when the candidate regresses a metric.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.jsonl CAND.jsonl")
		return 2
	}
	var sets [2]map[string][]float64
	for i, path := range args {
		m, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		sets[i] = m
	}
	code := 0
	vs := compareRuns(sets[0], sets[1], endToEnd)
	sort.Slice(vs, func(i, j int) bool { return vs[i].Metric < vs[j].Metric })
	for _, v := range vs {
		mark := "ok"
		if v.Regressed {
			mark, code = "REGRESSED", 1
		}
		fmt.Fprintf(out, "%-22s base %-12.6g cand %-12.6g worse %+7.2f%% (bound %.0f%%, base spread %.2f%%) %s\n",
			v.Metric, v.BaseMedian, v.CandMedian, 100*v.Worse, 100*v.Bound, 100*v.BaseSpread, mark)
	}
	return code
}

func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Metrics == nil {
			continue
		}
		for k, v := range r.Metrics {
			out[k] = append(out[k], v.Value)
		}
	}
	return out, sc.Err()
}

// Command benchrun is the repository benchmark. bench/run.sh
// builds it together with clxd and clxproxy and runs it from the root of
// the repository:
//
//	bash bench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// One run builds a fixture program registry through the library, starts
// the system under test from it (clxd, or a leader, a follower and
// clxproxy), drives one workload against it over loopback HTTP, checks
// every kept output against the in-process library, and prints each
// metric by name with its unit; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the start of the run
// is also replayed in-process with spans around each layer's calls, and
// the metrics are the per-layer ones. See bench/README.md.
//
//	-workload all      run every workload; the last line merges them
//	-runs N            repeat each workload N times, report medians
//	-out file          append every run's result, with provenance, as JSON lines
//	-trace-out file    write the traced replay's spans as Chrome trace JSON
//	-compare a b       compare two -out files against BENCHMARK.json bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"clx/internal/provenance"
)

// sizes are the benchmark's constants; tests shrink them.
type sizes struct {
	rate       float64 // serve workloads: open-loop arrivals per second
	openShare  float64 // serve workloads: share of the run that is open-loop
	phoneRows  int     // rows of a phone session column
	appendRows int     // rows appended to it before labeling
	bulkSmall  int     // bulk-stream: rows of the small body
	bulkLarge  int     // bulk-stream: rows of the large body
	passes     int     // wrangle: distinct passes the closed loop cycles through
	setups     int     // SUT start-ups per run; setup_s is their median
	// Traced replay lengths: serve requests, bulk bodies, wrangle passes.
	replayReqs, replayBodies, replayPasses int
}

var defaultSizes = sizes{
	rate: 400, openShare: 0.6,
	phoneRows: 20000, appendRows: 1000,
	bulkSmall: 100_000, bulkLarge: 1_000_000,
	passes: 4, setups: 7,
	replayReqs: 4000, replayBodies: 20, replayPasses: 5,
}

// conns is the serve workloads' connection count: the 2 CPUs of the
// machine the benchmark was defined on. It is a constant so the offered
// load does not change with the machine. bulk-stream and wrangle use one.
const conns = 2

type config struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string
	work     string
	traceOut string
	sizes    sizes
}

// record is one line of an -out file.
type record struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	Trace      bool                  `json:"trace"`
	Provenance provenance.Provenance `json:"provenance"`
	Result     result                `json:"result"`
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: serve-mix, fleet-mix, bulk-stream, wrangle, or all")
		seed     = flag.Int64("seed", 1, "seed every input is drawn from")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 replays the run in-process with spans and prints the per-layer metrics")
		runs     = flag.Int("runs", 1, "runs per workload; more than one reports medians and quartiles")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the clxd and clxproxy binaries")
		work     = flag.String("work", ".bench_build", "directory for run files (removed after each run)")
		out      = flag.String("out", "", "append each run's result as a JSON line to this file")
		traceOut = flag.String("trace-out", "", "write the traced replay's spans to this file as Chrome trace JSON")
		compare  = flag.Bool("compare", false, "compare two -out files (arguments) against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		ok, err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *trace < 0 || *trace > 1 || *seconds < 1 || *runs < 1 {
		fatalf("bad arguments: -workload %q -trace %d -seconds %d -runs %d", *name, *trace, *seconds, *runs)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatalf("%v", err)
	}
	cfg := &config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		bin: *bin, work: *work, traceOut: *traceOut, sizes: defaultSizes}

	// Children die with this process (Pdeathsig) even when it is killed; an
	// interrupt stops them cleanly and waits for them first.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(2)
	}()

	merged := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range chosen {
		var reps []result
		for k := 0; k < *runs; k++ {
			res, lines, err := runOnce(cfg, w)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			for _, l := range lines {
				fmt.Println(l)
			}
			printMetrics(w.name, res)
			if *out != "" {
				if err := appendRecord(*out, record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
					Trace: cfg.trace, Provenance: provenance.Collect(), Result: res}); err != nil {
					fatalf("%v", err)
				}
			}
			reps = append(reps, res)
		}
		res := summarize(reps)
		if *runs > 1 {
			printSpread(w.name, reps)
		}
		merged.Correct = merged.Correct && res.Correct
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(chosen) > 1 {
				k = w.name + "/" + k
			}
			merged.Metrics[k] = m
		}
	}
	line, err := json.Marshal(merged)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !merged.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	stopAll()
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func printMetrics(name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-12s %-30s %14.4f %s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// summarize folds repeated runs: per-metric medians, summed counts.
func summarize(reps []result) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	vals := map[string][]float64{}
	for _, r := range reps {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
			out.Metrics[k] = m
		}
	}
	for k, xs := range vals {
		out.Metrics[k] = metric{median(xs), out.Metrics[k].Unit}
	}
	return out
}

func printSpread(name string, reps []result) {
	vals := map[string][]float64{}
	for _, r := range reps {
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q1, q2, q3 := quartiles(vals[k])
		fmt.Printf("%-12s %-30s median %.4f  q1 %.4f  q3 %.4f  spread %.1f%%  (n=%d)\n",
			name, k, q2, q1, q3, 100*(q3-q1)/q2, len(vals[k]))
	}
}

func appendRecord(path string, rec record) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

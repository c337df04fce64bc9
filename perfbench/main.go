// Command perfbench is the repository's benchmark: it runs one named
// workload through the fleet's public entry points, checks every
// journal it produces, and prints the workload's metrics as the last
// line of standard output. See README.md for the workloads, the metrics
// and how the layers relate to them.
//
//	perfbench -workload apps-x4|attacks-x4|fleetd-mixed -seed N -seconds S -trace 0|1 -dir BUILD
//
// -trace 0 measures the end-to-end metrics with tracing off; -trace 1
// is the separate traced run that splits host time across the layers.
// -print-digests prints the journal digests digests.json records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = traced per-layer run")
	dir := fs.String("dir", ".bench_build", "directory for journals and span files")
	printDigests := fs.Bool("print-digests", false, "print the journal digest of every batch workload and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, dir: *dir}
	if *printDigests {
		if err := writeDigests(stdout, o); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var res *result
	var id *identity
	var err error
	if *trace == 1 {
		res, id, err = tracedRun(w, o)
	} else {
		res, id, err = timedRun(w, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]*identity{"identity": id}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timedRun is the untraced run that yields the end-to-end metrics.
func timedRun(w workload, o options) (*result, *identity, error) {
	var out *outcome
	var err error
	if w.batch != nil {
		out, err = timedBatch(w, o)
	} else {
		out, err = timedFleetd(w, o)
	}
	if err != nil {
		return nil, nil, err
	}
	m, err := out.metrics()
	if err != nil {
		return nil, nil, err
	}
	return &result{Correct: out.failed == 0, Attempted: out.attempts, Failed: out.failed, Metrics: m}, &out.id, nil
}

// writeDigests prints the journal digest of every batch workload in
// the form digests.json records.
func writeDigests(w io.Writer, o options) error {
	d := map[string]string{}
	for _, name := range workloadNames() {
		wl := workloads[name]
		if wl.batch == nil {
			continue
		}
		_, r, err := newBatchRunner(*wl.batch)
		if err != nil {
			return err
		}
		jr, err := runJournal(r, o.path(name+".ndjson"))
		if err != nil {
			return err
		}
		d[name] = jr.digest
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

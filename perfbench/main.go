// Command perfbench is the repository benchmark: one named workload, driven
// from a seed, with every payload verified and every metric printed by
// name with its unit. See README.md for the workloads, the metrics and
// which layer each workload is expected to move.
//
//	perfbench --workload pingpong-small.shm --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics from a traced run. A
// launched transport (shm, tcp) re-executes this binary as its two rank
// processes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mpicd/internal/core"
	"mpicd/internal/fabric"
	"mpicd/internal/launch"
	"mpicd/mpi"
)

// envWorker carries a launched rank's params (JSON).
const envWorker = "PERFBENCH_WORKER"

// reps is how many times a run sets the world up and measures it; each
// end-to-end metric is the median of the reps' figures.
const reps = 9

// outDir holds everything a run leaves behind, inside the checkout.
var outDir = filepath.Join(".bench_build", "perfbench")

type workload struct{ name, mix, transport string }

var workloadList = []workload{
	{"pingpong-small.inproc", "small", "inproc"},
	{"pingpong-small.shm", "small", "shm"},
	{"pingpong-small.tcp", "small", "tcp"},
	{"pingpong-large.inproc", "large", "inproc"},
	{"pingpong-large.shm", "large", "shm"},
	{"pingpong-large.tcp", "large", "tcp"},
	{"train-step", "train", "inproc"},
}

func main() {
	if v := os.Getenv(envWorker); v != "" {
		os.Exit(worker(v))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w workload
	for _, cand := range workloadList {
		if cand.name == *name {
			w = cand
		}
	}
	if w.name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names())
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	host0 := sampleHost()
	var results []*repResult
	var runErr error
	for rep := 0; rep < reps && runErr == nil; rep++ {
		p := params{Workload: w.name, Mix: w.mix, Transport: w.transport, Seed: *seed, Rep: rep,
			Seconds: *seconds / reps, Trace: *trace == 1}
		resetPeakRSS()
		res, err := runRep(p)
		if res != nil {
			res.RSSKiB += peakRSSKiB() // this process, which hosts in-process ranks
		}
		if err != nil {
			runErr = fmt.Errorf("rep %d: %w", rep, err)
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", runErr)
		}
		if res != nil {
			results = append(results, res)
		}
	}
	host1 := sampleHost()
	out := summarize(w, *seed, *trace == 1, spec, results, runErr)
	out.report["host"] = map[string]float64{"steal_share": stealShare(host0, host1),
		"copy_GiBps_before": host0.CopyGiBps, "copy_GiBps_after": host1.CopyGiBps}
	if err := out.write(w, *seed, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	for _, line := range out.lines {
		fmt.Println(line)
	}
	final, err := json.Marshal(out.final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(final))
	if !out.final.Correct {
		return 1
	}
	return 0
}

func names() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

// runRep sets up one world, runs the workload on it and tears it down.
func runRep(p params) (*repResult, error) {
	switch {
	case p.Mix == "train":
		return runTrainRep(p)
	case p.Transport == "inproc":
		var fab *fabric.Inproc
		if p.Trace {
			fab = fabric.NewInproc(2, fabric.Config{})
			defer fab.Close()
		}
		var res *repResult
		p.T0 = time.Now().UnixNano()
		err := core.Run(2, core.Options{}, func(c *core.Comm) error {
			r, err := runPingpong(c, p, rankEnv{sameProcess: true, fab: fab})
			if c.Rank() == 0 {
				res = r
			}
			return err
		})
		return res, err
	}
	return runLaunched(p)
}

func runTrainRep(p params) (*repResult, error) {
	var res *repResult
	p.T0 = time.Now().UnixNano()
	err := core.Run(trainRanks, core.Options{}, func(c *core.Comm) error {
		r, err := runTrain(c, p)
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	if err != nil || !p.Trace {
		return res, err
	}
	// The train-step probes run the small mix on a two-rank in-process
	// world of their own: the step itself has no point-to-point loop.
	fab := fabric.NewInproc(2, fabric.Config{})
	defer fab.Close()
	err = core.Run(2, core.Options{}, func(c *core.Comm) error {
		pp := &pinger{c: c, peer: 1 - c.Rank(), res: &repResult{}, ctl: make([]byte, 1)}
		if c.Rank() == 0 {
			pp.res, pp.tr = res, newTracer(p.runID()+"/probes")
		}
		err := probes(pp, p, rankEnv{sameProcess: true, fab: fab}, nil)
		if c.Rank() == 0 {
			off := len(res.Spans)
			for _, s := range pp.tr.spans {
				if s.Parent >= 0 {
					s.Parent += off
				}
				res.Spans = append(res.Spans, s)
			}
		}
		return err
	})
	spanLayers(res)
	return res, err
}

// runLaunched runs one rep as two launched rank processes over shm or tcp.
func runLaunched(p params) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Relative and short: unix socket paths are limited to ~100 bytes, and
	// every rank process starts in this directory.
	p.Dir = filepath.Join(".bench_build", "r", fmt.Sprintf("%d.%d", os.Getpid(), p.Rep))
	if err := os.MkdirAll(filepath.Join(p.Dir, "fab"), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.Dir)
	p.T0 = time.Now().UnixNano()
	pj, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	cmd := launch.Cmd{
		N:         2,
		Prog:      exe,
		Transport: p.Transport,
		Dir:       p.Dir,
		Timeout:   time.Duration(p.Seconds*float64(time.Second)) + 60*time.Second,
		Env:       []string{envWorker + "=" + string(pj), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))},
		Stdout:    os.Stderr,
		Stderr:    os.Stderr,
	}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(p.Dir, "result.json"))
	if err != nil {
		return nil, err
	}
	res := &repResult{}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, err
	}
	return res, nil
}

// worker is a launched rank process.
func worker(pj string) int {
	entry := time.Now()
	var p params
	if err := json.Unmarshal([]byte(pj), &p); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 1
	}
	start := time.Now()
	pw, ok, err := mpi.InitFromEnv(mpi.Options{})
	if err == nil && !ok {
		err = errors.New("not started by the launcher")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 1
	}
	env := rankEnv{spawnNS: entry.UnixNano() - p.T0, connectNS: int64(time.Since(start))}
	res, err := runPingpong(pw.Comm, p, env)
	if cerr := pw.Close(); err == nil {
		err = cerr
	}
	if err == nil && res != nil {
		var b []byte
		if b, err = json.Marshal(res); err == nil {
			err = os.WriteFile(filepath.Join(p.Dir, "result.json"), b, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker rank %d: %v\n", pw.Comm.Rank(), err)
		return 1
	}
	return 0
}

// --- results --------------------------------------------------------------------

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	report map[string]any // the "report:" line and report file
	human  []string
	lines  []string
	final  finalLine
}

// write puts the report into its file and assembles the lines printed
// before the final line.
func (o *output) write(w workload, seed int64, traced bool) error {
	rb, err := json.Marshal(o.report)
	if err != nil {
		return err
	}
	o.lines = append([]string{"report: " + string(rb)}, o.human...)
	path := filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, seed, btoi(traced)))
	return os.WriteFile(path, rb, 0o644)
}

// endToEnd are the metrics of an untraced run, with units: the ones
// BENCHMARK.json bounds.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"max_rss_MiB", "MiB"},
}

// alsoReported are end-to-end figures the report carries without a bound:
// means over the timed intervals, which follow the host's steal bursts too
// closely to bound (see README.md).
var alsoReported = []struct{ name, unit string }{
	{"goodput_MiBps", "MiB/s"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics of a traced run, with units.
var perLayer = []struct{ name, unit string }{
	{"fabric.rtt_us", "us"}, {"fabric.get_MiBps", "MiB/s"},
	{"ucp.rtt_us", "us"}, {"ucp.eager_per_msg", "ratio"}, {"ucp.rndv_per_msg", "ratio"},
	{"ucp.frags_per_msg", "ratio"}, {"ucp.acks_per_msg", "ratio"}, {"ucp.retransmits", "count"},
	{"ucp.timeouts", "count"}, {"ucp.unexpected_ratio", "ratio"}, {"ucp.striped_pull_ratio", "ratio"},
	{"ucp.segs_per_pull", "ratio"},
	{"core.rtt_us", "us"}, {"core.send_us", "us"}, {"core.recv_wait_us", "us"}, {"core.allocs_per_msg", "ratio"},
	{"core.halo_us", "us"}, {"core.allreduce_us", "us"}, {"core.allreduce_small_us", "us"},
	{"ddt.pack_us", "us"}, {"ddt.unpack_us", "us"}, {"ddt.regions_per_msg", "ratio"},
	{"ddt.plan_hit_ratio", "ratio"}, {"ddt.compile_us", "us"},
	{"serial.encode_us", "us"}, {"serial.decode_us", "us"}, {"derive.typeof_us", "us"},
	{"launch.spawn_s", "s"}, {"launch.connect_s", "s"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"}, {"go.heap_peak_MiB", "MiB"},
	{"self.core_us", "us"}, {"self.ucp_us", "us"}, {"trace.overhead_ratio", "ratio"},
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric lists,
// which must match the ones computed here, and each end-to-end metric's
// bound, which is also the stationarity threshold.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	listed := func(i int) (string, string) { return s.EndToEnd[i].Name, s.EndToEnd[i].Unit }
	if err := sameMetrics(path+" end_to_end", endToEnd, len(s.EndToEnd), listed); err != nil {
		return nil, err
	}
	listed = func(i int) (string, string) { return s.PerLayer[i].Name, s.PerLayer[i].Unit }
	if err := sameMetrics(path+" per_layer", perLayer, len(s.PerLayer), listed); err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range s.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func sameMetrics(what string, want []struct{ name, unit string }, n int, got func(int) (string, string)) error {
	if n != len(want) {
		return fmt.Errorf("%s lists %d metrics, the benchmark computes %d", what, n, len(want))
	}
	for i, m := range want {
		if name, unit := got(i); name != m.name || unit != m.unit {
			return fmt.Errorf("%s[%d] is %s (%s), the benchmark computes %s (%s)", what, i, name, unit, m.name, m.unit)
		}
	}
	return nil
}

func nsToFloat(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// drift compares the p50 of the first and the last third of a timed loop;
// P50us and P90us are the whole loop's.
type drift struct {
	P50us      float64 `json:"p50_us"`
	P90us      float64 `json:"p90_us"`
	FirstP50us float64 `json:"first_third_p50_us"`
	LastP50us  float64 `json:"last_third_p50_us"`
	Change     float64 `json:"change"`
	Flagged    bool    `json:"flagged"`
}

func stationarity(ops []int64, bound float64) drift {
	n := len(ops) / 3
	if n == 0 {
		return drift{}
	}
	first := quantile(nsToFloat(ops[:n]), 0.5) / 1e3
	last := quantile(nsToFloat(ops[len(ops)-n:]), 0.5) / 1e3
	all := nsToFloat(ops)
	d := drift{P50us: quantile(all, 0.5) / 1e3, P90us: quantile(all, 0.9) / 1e3,
		FirstP50us: first, LastP50us: last, Change: last/first - 1}
	d.Flagged = math.Abs(d.Change) > bound
	return d
}

func summarize(w workload, seed int64, traced bool, bounds map[string]float64, results []*repResult, runErr error) output {
	var out output
	f := &out.final
	f.Metrics = map[string]metric{}
	// Every end-to-end figure is computed per rep and the run reports the
	// median over its reps, so a disturbance confined to a minority of the
	// reps does not move it.
	var ops, tracedOps []int64
	per := map[string][]float64{}
	var errs []string
	repDrift := []drift{}
	for _, r := range results {
		f.Attempted += r.Attempted
		f.Failed += r.Failed
		errs = append(errs, r.Errors...)
		ops = append(ops, r.Ops...)
		tracedOps = append(tracedOps, r.Traced...)
		d := stationarity(r.Ops, bounds["op_p50_us"])
		repDrift = append(repDrift, d)
		var sumNS int64
		for _, ns := range r.Ops {
			sumNS += ns
		}
		secs := float64(sumNS) / 1e9
		per["setup_s"] = append(per["setup_s"], float64(r.SetupNS)/1e9)
		per["op_p50_us"] = append(per["op_p50_us"], d.P50us)
		per["op_p90_us"] = append(per["op_p90_us"], d.P90us)
		per["goodput_MiBps"] = append(per["goodput_MiBps"], ratio(float64(r.Bytes)/(1<<20), secs))
		per["ops_per_s"] = append(per["ops_per_s"], ratio(float64(len(r.Ops)), secs))
		per["max_rss_MiB"] = append(per["max_rss_MiB"], float64(r.RSSKiB)/1024)
	}
	if runErr != nil {
		f.Attempted++
		f.Failed++
		errs = append(errs, runErr.Error())
	}
	f.Attempted = max(f.Attempted, 1)
	f.Correct = f.Failed == 0 && len(ops) > 0

	e2e := map[string]float64{}
	withUnits := map[string]metric{}
	for _, m := range append(endToEnd[:len(endToEnd):len(endToEnd)], alsoReported...) {
		e2e[m.name] = median(per[m.name])
		withUnits[m.name] = metric{e2e[m.name], m.unit}
	}
	v := nsToFloat(ops)
	p50, p90, p99 := quantile(v, 0.5)/1e3, quantile(v, 0.9)/1e3, quantile(v, 0.99)/1e3
	overall := stationarity(ops, bounds["op_p50_us"])

	layers := map[string]float64{}
	layerReps := map[string]int{}
	var notApplicable []string
	if traced {
		// Median over the reps that measured the metric: a cold
		// derivation, for one, happens once per process.
		for _, m := range perLayer {
			var vals []float64
			for _, r := range results {
				if v, ok := r.Layers[m.name]; ok {
					vals = append(vals, v)
				}
			}
			layers[m.name] = median(vals)
			layerReps[m.name] = len(vals)
		}
		layers["trace.overhead_ratio"] = ratio(quantile(nsToFloat(tracedOps), 0.5)/1e3, p50)
		for _, m := range perLayer {
			if layers[m.name] == 0 {
				notApplicable = append(notApplicable, m.name)
			}
		}
		for _, m := range perLayer {
			f.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		writeSpans(w, results)
	} else {
		for _, m := range endToEnd {
			f.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}

	report := map[string]any{
		"workload":      w.name,
		"transport":     w.transport,
		"trace":         traced,
		"provenance":    provenance(seed),
		"fail_ratio":    ratio(float64(f.Failed), float64(f.Attempted)),
		"errors":        errs,
		"end_to_end":    withUnits,
		"per_transport": perTransport(w, e2e),
		"pooled_us":     map[string]float64{"p50": p50, "p90": p90, "p99": p99},
		"samples": map[string]int{
			"timed_ops": len(ops), "traced_ops": len(tracedOps), "reps": len(results),
		},
		"stationarity": map[string]any{"run": overall, "reps": repDrift, "bound": bounds["op_p50_us"]},
	}
	if traced {
		report["per_layer"] = layers
		report["per_layer_reps"] = layerReps
		report["span_counts"] = spanCounts(results)
		report["zero_per_layer"] = notApplicable
	}
	if overall.Flagged {
		fmt.Fprintf(os.Stderr, "perfbench: %s p50 drifted %+.1f%% from the first to the last third of the run (bound %.0f%%)\n",
			w.name, 100*overall.Change, 100*bounds["op_p50_us"])
	}
	out.report = report
	out.human = humanLines(w, e2e, p99, len(ops), f, layers, traced)
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// perTransport restates the end-to-end figures under their per-transport
// names (rtt_p50_us.shm, step_p50_ms, ...).
func perTransport(w workload, e2e map[string]float64) map[string]metric {
	if w.mix == "train" {
		return map[string]metric{
			"step_p50_ms": {e2e["op_p50_us"] / 1e3, "ms"}, "step_p90_ms": {e2e["op_p90_us"] / 1e3, "ms"},
			"steps_per_s": {e2e["ops_per_s"], "1/s"},
		}
	}
	return map[string]metric{
		"rtt_p50_us." + w.transport:    {e2e["op_p50_us"], "us"},
		"rtt_p90_us." + w.transport:    {e2e["op_p90_us"], "us"},
		"goodput_MiBps." + w.transport: {e2e["goodput_MiBps"], "MiB/s"},
	}
}

func humanLines(w workload, e2e map[string]float64, p99 float64, n int, f *finalLine,
	layers map[string]float64, traced bool) []string {
	lines := []string{fmt.Sprintf("%s: %d timed ops, p50 %.1f us, p90 %.1f us, p99 %.1f us, %.1f MiB/s, setup %.3f s, fail %d/%d",
		w.name, n, e2e["op_p50_us"], e2e["op_p90_us"], p99, e2e["goodput_MiBps"], e2e["setup_s"], f.Failed, f.Attempted)}
	if traced {
		keys := make([]string, 0, len(layers))
		for k := range layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			lines = append(lines, fmt.Sprintf("  %-26s %12.4f", k, layers[k]))
		}
	}
	return lines
}

// spanCounts is the number of spans behind each span-based metric.
func spanCounts(results []*repResult) map[string]int {
	n := map[string]int{}
	for _, r := range results {
		for _, s := range r.Spans {
			n[s.Name]++
		}
	}
	return n
}

// writeSpans writes every traced rep's spans, one JSON object per line. The
// file holds the latest traced run of the workload.
func writeSpans(w workload, results []*repResult) {
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s.jsonl", w.name))
	fh, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	enc := json.NewEncoder(fh)
	for _, r := range results {
		for _, s := range r.Spans {
			if err = enc.Encode(s); err != nil {
				break
			}
		}
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
	}
}

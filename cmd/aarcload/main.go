package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aarcload: ")
	var (
		workloadName = flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
		seed         = flag.Uint64("seed", 1, "seed of every generated spec, body, popularity draw and arrival time")
		seconds      = flag.Float64("seconds", 12, "measured seconds S per workload: 20/27 S open loop, 7/27 S closed loop, after an S/9 warm-up")
		trace        = flag.Int("trace", 0, "1: traced run, reporting per-layer metrics instead of end-to-end ones")
		traceDir     = flag.String("trace-dir", "", "traced run: write spans.jsonl and layers.json under this directory")
		jsonPath     = flag.String("json", "", "also write the results and the run's environment to this file")
		repeat       = flag.Int("repeat", 1, "run the benchmark this many times and report each metric's median and quartiles")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o := runOptions{
		workload: *workloadName,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceDir: *traceDir,
		sz:       fullSizes,
	}
	if *workloadName != "" && *repeat == 1 {
		os.Exit(runOne(o, *jsonPath))
	}
	os.Exit(runAll(o, *repeat, *jsonPath))
}

// runOne runs one workload in this process. Its last line of output is
// the result as one JSON object; it exits non-zero when any check failed.
func runOne(o runOptions, jsonPath string) int {
	res, err := runWorkload(o)
	if err != nil {
		log.Print(err)
		return 1
	}
	for _, f := range res.Failures {
		log.Print("failure: ", f)
	}
	if !res.Valid {
		log.Printf("%s: dispatcher p99 lateness over %v: this run is invalid", res.Workload, maxSchedLate)
	}
	metrics := res.E2E
	if o.trace {
		metrics = res.Layers
	}
	warm, open, closed := phases(o.seconds)
	fmt.Printf("%s seed=%d rate=%g/s warm-up=%v open=%v closed=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.RateRPS, warm, open, closed, res.Attempted, res.Failed)
	for _, m := range metrics {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if !o.trace {
		fmt.Println("  unresolved, reported but not bounded:")
		for _, m := range res.Unresolved {
			fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	line, err := json.Marshal(output{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   metricsJSON(metrics),
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Println(string(line))
	if jsonPath != "" {
		if err := writeReport(jsonPath, o, []runRecord{recordOf(res)}); err != nil {
			log.Print(err)
			return 1
		}
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// output is the last line a workload run prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricsJSON(ms []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		out[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return out
}

// runRecord is one workload run as the -json report keeps it.
type runRecord struct {
	*result
	Metrics map[string]metricValue `json:"metrics"`
}

func recordOf(res *result) runRecord {
	all := slices.Concat(res.E2E, res.Unresolved, res.Layers)
	return runRecord{result: res, Metrics: metricsJSON(all)}
}

// runAll runs every selected workload repeat times, each run in a child
// process of its own, and prints each metric's median and quartiles. A
// traced benchmark runs every workload untraced and traced, and reports
// the tracing overhead as the difference.
func runAll(o runOptions, repeat int, jsonPath string) int {
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range allWorkloads {
			names = append(names, w.name)
		}
	}
	modes := []bool{o.trace}
	if o.trace {
		modes = []bool{false, true}
	}
	type key struct {
		workload string
		traced   bool
	}
	values := make(map[key]map[string][]float64)
	units := make(map[string]string)
	var records []runRecord
	code := 0
	for r := 0; r < repeat; r++ {
		for _, name := range names {
			for _, traced := range modes {
				out, err := runChild(o, name, traced)
				if err != nil {
					log.Printf("%s: %v", name, err)
					code = 1
					continue
				}
				if !out.Correct {
					code = 1
				}
				k := key{name, traced}
				if values[k] == nil {
					values[k] = make(map[string][]float64)
				}
				rec := runRecord{result: &result{Workload: name, Seed: o.seed, Traced: traced, Attempted: out.Attempted, Failed: out.Failed}, Metrics: out.Metrics}
				records = append(records, rec)
				for m, v := range out.Metrics {
					values[k][m] = append(values[k][m], v.Value)
					units[m] = v.Unit
				}
			}
		}
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %14s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for _, name := range names {
		for _, traced := range modes {
			vals := values[key{name, traced}]
			ms := make([]string, 0, len(vals))
			for m := range vals {
				ms = append(ms, m)
			}
			slices.Sort(ms)
			for _, m := range ms {
				q1, q2, q3 := quartiles(vals[m])
				fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %14.6g %7.2f%% %s\n", name, m, q2, q1, q3, 100*div(q3-q1, q2), units[m])
			}
		}
		if o.trace {
			plain, traced := values[key{name, false}], values[key{name, true}]
			fmt.Fprintf(w, "%-14s tracing overhead: p50_ms %+.4g ms, cpu_ms_per_req %+.4g ms\n", name,
				median(traced["traced.p50_ms"])-median(plain["p50_ms"]),
				median(traced["traced.cpu_ms_per_req"])-median(plain["cpu_ms_per_req"]))
		}
	}
	if err := w.Flush(); err != nil {
		log.Print(err)
		code = 1
	}
	if jsonPath != "" {
		if err := writeReport(jsonPath, o, records); err != nil {
			log.Print(err)
			code = 1
		}
	}
	return code
}

// runChild runs one workload in a child process of this same binary and
// returns its run as the child's -json report records it, with the
// unresolved metrics beside the ones its result line carries.
func runChild(o runOptions, name string, traced bool) (output, error) {
	self, err := os.Executable()
	if err != nil {
		return output{}, err
	}
	f, err := os.CreateTemp("", "aarcload-*.json")
	if err != nil {
		return output{}, err
	}
	f.Close()
	defer os.Remove(f.Name())
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace,
		"-json", f.Name(),
	}
	if traced && o.traceDir != "" {
		args = append(args, "-trace-dir", filepath.Join(o.traceDir, name))
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rep struct {
		Runs []output `json:"runs"`
	}
	b, err := os.ReadFile(f.Name())
	if err == nil {
		err = json.Unmarshal(b, &rep)
	}
	if err != nil || len(rep.Runs) != 1 {
		if runErr != nil {
			return output{}, runErr
		}
		return output{}, fmt.Errorf("reading the run's report: %v", err)
	}
	out := rep.Runs[0]
	out.Correct = out.Failed == 0
	return out, nil
}

// report is the -json file: the environment the numbers were measured in
// and every run.
type report struct {
	GitSHA     string             `json:"git_sha"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPUModel   string             `json:"cpu_model"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	RatesRPS   map[string]float64 `json:"rates_rps"`
	Runs       []runRecord        `json:"runs"`
}

func writeReport(path string, o runOptions, runs []runRecord) error {
	rep := report{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Seed:       o.seed,
		Seconds:    o.seconds,
		RatesRPS:   make(map[string]float64),
		Runs:       runs,
	}
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rep.GitSHA = strings.TrimSpace(string(sha))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				rep.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	for _, w := range allWorkloads {
		rep.RatesRPS[w.name] = w.rate
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Command perfbench is the repository's benchmark. It runs one workload
// of the Parallax toolchain through its public packages (farm,
// core.Protect, campaign, attack, emu, corpus, corpus/gen), checks
// every output, and prints its metrics as JSON on the last line of
// standard output:
//
//	perfbench --workload protect-batch|campaign-corpus \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, measured untraced; --trace 1
// prints the per-layer metrics of a traced run and writes its spans to
// .bench_build/trace/. README.md says why each workload exists and
// which layer metric feeds which end-to-end metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit; the tables below match
// BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"throughput", "items/cpu-s"},
	{"overhead_pct", "%"},
	{"text_growth_pct", "%"},
	{"guarded_bytes_pct", "%"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"protect_kib_per_s", "KiB/s"},
	{"protect_warm_kib_per_s", "KiB/s"},
	{"protect_ms_16k", "ms"},
	{"protect_ms_160k", "ms"},
	{"protect_ms_1600k", "ms"},
	{"mutants_per_s", "1/s"},
	{"detected_pct", "%"},
	{"guarded_chain_pct", "%"},
	{"gadget.scan_ms", "ms"},
	{"gadget.scans", "count"},
	{"gadget.scan_mib_per_s", "MiB/s"},
	{"core.passes", "count"},
	{"core.protect_ms", "ms"},
	{"core.rewrite_ms", "ms"},
	{"core.layout_ms", "ms"},
	{"core.chain_compile_ms", "ms"},
	{"core.install_ms", "ms"},
	{"core.compose_ms", "ms"},
	{"codegen.build_ms", "ms"},
	{"farm.scan_hit_pct", "%"},
	{"farm.hint_hit_pct", "%"},
	{"farm.queue_wait_ms", "ms"},
	{"farm.jobs_failed", "count"},
	{"emu.insts", "count"},
	{"emu.runs", "count"},
	{"emu.inst_limit_trips", "count"},
	{"emu.watchdog_trips", "count"},
	{"emu.faults", "count"},
	{"emu.clean_run_ms", "ms"},
	{"emu.tb.minsts_per_s", "Minsts/s"},
	{"emu.interp.minsts_per_s", "Minsts/s"},
	{"emu.tb.translations", "count"},
	{"emu.tb.catalog_hit_pct", "%"},
	{"emu.tb.chain_hits", "count"},
	{"emu.tb.invalidations", "count"},
	{"emu.restores", "count"},
	{"emu.dirty_pages_mean", "pages"},
	{"campaign.enumerate_ms", "ms"},
	{"campaign.execute_s", "s"},
	{"campaign.mutants", "count"},
	{"campaign.insts_per_mutant", "insts"},
	{"campaign.budget_insts_pct", "%"},
	{"campaign.infra_errors", "count"},
	{"campaign.panics", "count"},
	{"trace.overhead_pct", "%"},
}

// scale sizes a workload. The benchmark always runs fullScale; the
// tests trim it.
type scale struct {
	programs      []string // corpus programs to use (nil: all six)
	families      []string // gen families to use (nil: all the workload lists)
	corpusMutants int      // mutants per corpus campaign
	minRounds     int      // timed rounds at least, whatever --seconds says
}

var fullScale = scale{corpusMutants: 16, minRounds: 3}

func (s scale) keepProgram(name string) bool {
	return s.programs == nil || slices.Contains(s.programs, name)
}
func (s scale) keepFamily(name string) bool {
	return s.families == nil || slices.Contains(s.families, name)
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workers  int // farm and campaign workers
	scale    scale
}

// logf reports progress on standard error.
func (rc runConfig) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, rc.workload+": "+format+"\n", args...)
}

type workloadFunc func(context.Context, runConfig, *ledger, *tracer) (map[string]float64, error)

var workloads = map[string]workloadFunc{
	"protect-batch":   protectBatch,
	"campaign-corpus": campaignWorkload,
}

// runRounds calls round until the rounds have taken rc.seconds and at
// least the scale's minimum ran. An untraced run times every round
// untraced. A traced run alternates untraced and traced rounds, at
// least two of each, so it measures its own tracing overhead.
func runRounds(rc runConfig, round func(traced bool) error) error {
	minRounds := rc.scale.minRounds
	if rc.trace {
		minRounds = max(minRounds+minRounds%2, 4)
	}
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < rc.seconds || (rc.trace && i%2 == 1); i++ {
		// Each round starts from a collected heap, so garbage the set-up
		// or the previous round left is not collected on its clock.
		runtime.GC()
		if err := round(rc.trace && i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "protect-batch or campaign-corpus")
	seed := fl.Uint64("seed", 1, "workload seed: generated programs and mutant samples derive from it")
	seconds := fl.Int("seconds", 10, "how long the timed rounds run")
	traceFlag := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced run")
	traceDir := fl.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	_, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "usage error: need --workload protect-batch|campaign-corpus, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	rc := runConfig{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, workers: min(2, runtime.NumCPU()), scale: fullScale,
	}
	stamp := newStamp(rc)
	if err := execute(rc, stamp, *traceDir, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// execute runs one workload and prints the stamp and the result.
func execute(rc runConfig, stamp map[string]any, traceDir string, stdout, stderr io.Writer) error {
	// A run must end well inside three minutes; the deadline turns a
	// hang into an error instead of a killed process.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	led := &ledger{}
	values, err := workloads[rc.workload](ctx, rc, led, tr)
	if err != nil {
		return err
	}
	if values["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return err
	}

	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	res := result{Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed, Metrics: map[string]metricOutput{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !rc.trace {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metricOutput{Value: v, Unit: d.unit}
	}
	for _, n := range led.notes {
		fmt.Fprintf(stderr, "check failed: %s\n", n)
	}
	if rc.trace {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))
		if err := tr.write(path, map[string]any{"stamp": stamp, "result": res}); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stderr, "spans written to %s\n", path)
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"stamp": stamp}); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// newStamp identifies what was measured and where: the source (git
// commit when built in a git checkout, and always a digest of the
// sources), the toolchain, the host's parallelism and the run's
// settings.
func newStamp(rc runConfig) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	host, _ := os.Hostname() // an empty host name only weakens the stamp
	return map[string]any{
		"commit":     commit,
		"modified":   modified,
		"source":     sourceDigest("."),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"host":       host,
		"workload":   rc.workload,
		"seed":       rc.seed,
		"seconds":    rc.seconds.Seconds(),
		"trace":      rc.trace,
		"workers":    rc.workers,
	}
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// hidden and build directories, so a result stays attributable to its
// sources where the checkout has no git metadata.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Command benchmark is the repository's one outside-in benchmark: five
// workloads, the end-to-end metrics a user of the system waits for, and a
// cost line per layer. Every layer is measured from outside, by timing
// calls into its public functions; see README.md.
//
//	go run -C benchmark .                        every workload, both passes, a table
//	go run -C benchmark . -spans spans.json      … and the traced passes' spans, one file per workload
//	go run -C benchmark . -aa 2                  A/A: the whole benchmark twice, compared
//	go run -C benchmark . --workload sor_fine --seed 7 --seconds 10 --trace 0
//
// The last form is the driver's: one workload, one pass, and as the last
// line of standard output one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The other forms run
// that form once per workload and pass, each in a process of its own, so
// that no workload measures the heap, goroutines and sockets another left
// behind.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

//go:embed testdata/expected.json
var expectedJSON []byte

// loadGolden returns the committed expectations for this architecture.
// Floating-point results are bit-exact per architecture only (Go fuses
// multiply-adds on some), so an architecture without an entry runs on
// the reference comparison alone.
func loadGolden() (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return all[runtime.GOARCH], nil
}

// hostInfo is recorded with every output: numbers are comparable only
// between runs that agree on it.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func host(seed int64) hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Commit: "unknown", Seed: seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" { // `go run` does not stamp the binary
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as a JSON line (default: all, as a table)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs (DSL spec parameters, request stream)")
		seconds = flag.Float64("seconds", 15, "wall budget of each timed section")
		trace   = flag.Int("trace", 0, "with -workload: 0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
		spans   = flag.String("spans", "", "write the traced pass's spans to this file")
		aa      = flag.Int("aa", 0, "A/A: run the whole benchmark this many times (>= 2) on the same build and compare odd rounds with even ones")
		write   = flag.Bool("write-golden", false, "regenerate testdata/expected.json for this architecture and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || *aa == 1 || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if golden == nil {
		fmt.Fprintf(os.Stderr, "benchmark: no committed expectations for %s; checking against the references only\n", runtime.GOARCH)
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), setups: 3, golden: golden}
	h := host(*seed)

	switch {
	case *write:
		err = writeGolden(cfg)
	case *name != "":
		err = runOne(*name, cfg, *trace == 1, *spans, h)
	case *aa >= 2:
		err = runAA(cfg, *aa)
	default:
		_, err = runAll(cfg, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricLine `json:"metrics"`
}

type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// encodeResult renders the result line: every end-to-end metric of an
// untraced pass, every per-layer metric of a traced one.
func encodeResult(res result) ([]byte, error) {
	line := resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricLine{}}
	defs := endToEnd
	if res.traced {
		defs = perLayer
	}
	for _, m := range defs {
		if s, ok := res.metrics[m.Name]; ok {
			line.Metrics[m.Name] = metricLine{Value: s.Value, Unit: m.Unit}
		}
	}
	return json.Marshal(line)
}

func printResultLine(res result) {
	data, err := encodeResult(res)
	if err != nil { // only a NaN or an infinity can do this
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// runOne is the driver's form: one workload, one pass, in this process.
func runOne(name string, cfg config, traced bool, spans string, h hostInfo) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var rec *recorder
	if traced {
		rec = newRecorder(w.name)
		cfg.setups = 1
	}
	res, hung := runWorkload(w, cfg, rec)
	if rec != nil && spans != "" && !hung {
		if err := writeSpans(spans, h, rec); err != nil {
			return err
		}
	}
	printTable(os.Stderr, h, res)
	printResultLine(res)
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, f)
	}
	if hung {
		// The watchdog fired: a goroutine of the workload is still running
		// and cannot be stopped, so leave at once.
		os.Exit(1)
	}
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
	}
	return nil
}

// child runs one workload pass as a process of its own (this executable
// in the driver's form), forwards its table to standard output and
// returns its result line.
func child(w workload, cfg config, traced bool, spans string) (resultLine, error) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.budget.Seconds()), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if spans != "" {
			ext := filepath.Ext(spans)
			args = append(args, "-spans", strings.TrimSuffix(spans, ext)+"."+w.name+ext)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stdout
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("%s: no result line: %v (%v)", w.name, err, runErr)
	}
	return line, runErr
}

// runAll runs every workload, untraced then traced. A failed pass does
// not stop the others; the error reports how many failed.
func runAll(cfg config, spans string) ([]resultLine, error) {
	var lines []resultLine
	failed := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			line, err := child(w, cfg, traced, spans)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				failed++
			}
			lines = append(lines, line)
		}
	}
	if failed > 0 {
		return lines, fmt.Errorf("%d of %d passes failed", failed, len(lines))
	}
	return lines, nil
}

// printTable prints every metric of one pass by name, with unit and
// sample count, under the host line.
func printTable(out *os.File, h hostInfo, r result) {
	kind, defs := "end-to-end (tracing off)", endToEnd
	if r.traced {
		kind, defs = "per-layer (traced pass)", perLayer
	}
	fmt.Fprintf(out, "\n%s — %s: attempted %d, failed %d, fail_share %.4f\n",
		r.workload, kind, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	fmt.Fprintf(out, "  host: nproc=%d GOMAXPROCS=%d %s %s commit=%s seed=%d\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOARCH, h.Commit, h.Seed)
	for _, m := range defs {
		s, ok := r.metrics[m.Name]
		if !ok || (r.traced && s.N == 0) {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(out, "  %-30s %14.6g %-7s n=%d\n", m.Name, s.Value, m.Unit, s.N)
	}
}

// runAA runs the whole benchmark `times` times on this build, odd rounds
// for side A and even rounds for side B (alternating, so that a drift of
// the host hits both alike), and compares the sides' medians: an
// end-to-end metric of B may not be worse than A's by more than its
// bound, an exact count may not differ at all.
func runAA(cfg config, times int) error {
	rounds := make([][]resultLine, times)
	for i := range rounds {
		var err error
		if rounds[i], err = runAll(cfg, ""); err != nil {
			return err
		}
	}
	side := func(pass int, name string, first int) float64 {
		var xs []float64
		for r := first; r < times; r += 2 {
			xs = append(xs, rounds[r][pass].Metrics[name].Value)
		}
		return median(xs)
	}
	fmt.Printf("\nA = median of %d round(s), B = median of %d round(s)\n", (times+1)/2, times/2)
	fmt.Printf("%-14s %-26s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	bad := 0
	for pass := range rounds[0] {
		w, traced := workloads[pass/2], pass%2 == 1
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, m := range defs {
			va, vb := side(pass, m.Name, 0), side(pass, m.Name, 1)
			if traced && va == 0 && vb == 0 {
				continue // a layer this workload does not exercise
			}
			worse := 0.0 // share by which B is worse than A
			if va != 0 {
				worse = (vb - va) / math.Abs(va)
				if m.Better == "higher" {
					worse = -worse
				}
			}
			bound, verdict := "", ""
			switch {
			case !traced:
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
				if worse > m.Bound {
					verdict, bad = "OVER BOUND", bad+1
				}
			case m.Exact:
				bound = "exact"
				for _, r := range rounds { // every round, not only the medians
					if r[pass].Metrics[m.Name].Value != va {
						verdict = "COUNT DIFFERS"
					}
				}
				if verdict != "" {
					bad++
				}
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %+8.1f%% %7s %s\n", w.name, m.Name, va, vb, worse*100, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metric(s) disagree between two sets of runs of the same build", bad)
	}
	return nil
}

// writeGolden sets every workload up at both scales, collecting what the
// golden comparison would check, and rewrites this architecture's entry
// of testdata/expected.json (relative to the benchmark directory, which
// is the working directory under `go run -C benchmark .`).
func writeGolden(cfg config) error {
	cfg.golden, cfg.record = nil, map[string]string{}
	for _, small := range []bool{false, true} {
		cfg.small = small
		for _, w := range workloads {
			inst, err := w.setup(cfg, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			inst.close()
		}
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil || all == nil {
		all = map[string]map[string]string{}
	}
	all[runtime.GOARCH] = cfg.record
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%d expectations for %s\n", len(cfg.record), runtime.GOARCH)
	return os.WriteFile("testdata/expected.json", append(data, '\n'), 0o644)
}

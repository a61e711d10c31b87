package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"

	"parallax/internal/attack"
	"parallax/internal/core"
	"parallax/internal/emu"
	"parallax/internal/gadget"
	"parallax/internal/image"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public API call (the program itself gets no new spans).
// Times are nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Item   string `json:"item,omitempty"` // protect job or campaign (image/profile)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
// Only the workload's own goroutine records spans.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 for a nil tracer).
func (t *tracer) add(name, item string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Item: item,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open starts a span whose end is filled in by close. Children may
// name it as parent before it closes.
func (t *tracer) open(name, item string, parent int) int {
	now := time.Now()
	return t.add(name, item, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// write saves the spans, with the run's stamp and extra records, as
// JSON.
func (t *tracer) write(path string, header map[string]any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	header["spans"] = t.spans
	b, err := json.MarshalIndent(header, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// scanMeter is a core.Options.ScanFunc that times every gadget.Scan
// and counts the executable bytes it read. core.Protect calls it on the
// caller's goroutine.
type scanMeter struct {
	scans int
	bytes int
	nanos time.Duration
	tr    *tracer
	// parent is the span new scan spans attach to; set per protect call
	// on the sequential paths that use the meter.
	parent int
	item   string
}

func (m *scanMeter) scan(img *image.Image, cfg gadget.ScanConfig) *gadget.Catalog {
	start := time.Now()
	cat := gadget.Scan(img, cfg)
	end := time.Now()
	m.nanos += end.Sub(start)
	m.scans++
	for _, s := range img.Sections {
		if s.Perm&image.PermX != 0 {
			m.bytes += len(s.Data)
		}
	}
	m.tr.add("gadget.Scan", m.item, m.parent, start, end)
	return cat
}

func (m *scanMeter) mibPerSec() float64 {
	if m.nanos == 0 {
		return 0
	}
	return float64(m.bytes) / (1 << 20) / m.nanos.Seconds()
}

// imageHash is the SHA-256 of an image's serialized form: the identity
// of a protect job's output.
func imageHash(img *image.Image) (string, error) {
	h := sha256.New()
	if _, err := img.WriteTo(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runOutcome is one emulated run's observable behaviour and modeled
// cost.
type runOutcome struct {
	status int32
	stdout string
	cycles uint64
}

// emulate runs img on stdin on the tb engine through attack.RunWith,
// on a CPU loaded here so the modeled cycle count can be read back.
func emulate(ctx context.Context, img *image.Image, stdin []byte) (runOutcome, error) {
	cpu, err := emu.LoadImageWith(img, emu.LoadConfig{})
	if err != nil {
		return runOutcome{}, err
	}
	res := attack.RunWith(ctx, img, attack.RunConfig{Stdin: stdin, CPU: cpu, Engine: "tb"})
	if res.Err != nil {
		return runOutcome{}, res.Err
	}
	return runOutcome{status: res.Status, stdout: res.Stdout, cycles: cpu.Cycles}, nil
}

// protectQuality holds the deterministic figures of one protected
// image: the Fig. 6 analogue and the text growth.
func protectQuality(prot *core.Protected) (guardedPct, growthPct float64) {
	base, out := len(prot.Baseline.Text().Data), len(prot.Image.Text().Data)
	return prot.ProtectedBytes().Percent(), 100 * (float64(out)/float64(base) - 1)
}

// differential runs the baseline and the protected image on the same
// stdin and returns the protected run's modeled cycles over the
// baseline's. The two runs must exit cleanly with the same status and
// output.
func differential(ctx context.Context, prot *core.Protected, stdin []byte) (float64, error) {
	base, err := emulate(ctx, prot.Baseline, stdin)
	if err != nil {
		return 0, fmt.Errorf("baseline run: %w", err)
	}
	out, err := emulate(ctx, prot.Image, stdin)
	if err != nil {
		return 0, fmt.Errorf("protected run: %w", err)
	}
	if base.status != out.status || base.stdout != out.stdout {
		return 0, fmt.Errorf("protected run diverges from baseline: status %d vs %d, %d vs %d stdout bytes",
			out.status, base.status, len(out.stdout), len(base.stdout))
	}
	return float64(out.cycles) / float64(base.cycles), nil
}

// ledger counts the operations a run attempted and those that failed
// an output check, keeping the first few failure messages.
type ledger struct {
	attempted int
	failed    int
	notes     []string
}

func (l *ledger) attempt(n int) { l.attempted += n }

func (l *ledger) fail(n int, format string, args ...any) {
	l.failed += n
	if len(l.notes) < 20 {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// overheadPct turns cycle ratios into one overhead percentage through
// their geometric mean, so no single image (a checksum-composed one
// runs many times its baseline) outweighs the rest.
func overheadPct(ratios []float64) float64 {
	logSum := 0.0
	for _, r := range ratios {
		logSum += math.Log(r)
	}
	return 100 * (math.Exp(logSum/float64(len(ratios))) - 1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// cpuTime is the CPU time the process has used so far, user and
// system, in all its threads. The kernel charges a thread only for the
// time it ran: not for time spent waiting to be scheduled, nor, in a
// guest with steal-time accounting, for time the host took its virtual
// CPU away. Both come from other load, not from the program.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// minimum returns the smallest of xs (0 for none).
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// timeSetup runs setup repeatedly and returns the median duration with
// the last repetition's state. It repeats at least three times, and up
// to seven while the repetitions so far took under two seconds, so
// cheap set-ups get a steadier median.
func timeSetup[S any](setup func() (S, error)) (S, float64, error) {
	var (
		state S
		times []float64
		total time.Duration
	)
	for len(times) < 3 || (len(times) < 7 && total < 2*time.Second) {
		state = *new(S) // let the previous repetition's state be collected
		start := time.Now()
		s, err := setup()
		d := time.Since(start)
		if err != nil {
			return state, 0, err
		}
		state = s
		total += d
		times = append(times, d.Seconds())
	}
	return state, median(times), nil
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"parallax/internal/attack"
	"parallax/internal/campaign"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/obs"
)

// mutantTimeout is every campaign's per-mutant wall-clock watchdog. The
// longest mutant (one that exhausts MaxInst) runs well under a second,
// so only the instruction budget ever ends a run; a wall-clock trip
// would mean the host stalled and counts as a failed operation.
const mutantTimeout = time.Minute

// corpusMaxInst is the per-mutant instruction budget of the corpus
// campaigns, the CLI's default.
const corpusMaxInst = 20_000_000

// inMemoryKinds are the mutation kinds the campaigns use: byte patches
// a cracker would apply. Serialized-form corruption mostly exercises
// the loader, which no workload here is about.
var inMemoryKinds = []campaign.Kind{campaign.KindBitFlip, campaign.KindByteSet, campaign.KindNopSweep}

// campaignSpec is one campaign of a workload: a protected image under
// one stdin profile.
type campaignSpec struct {
	name   string // image/profile
	prot   *core.Protected
	cfg    campaign.Config
	stdin  []byte
	counts refCounts // from the reference round
}

// refCounts are the reference round's figures every later round must
// reproduce exactly.
type refCounts struct {
	fingerprint string
	mutants     int
	insts       uint64
	runs        uint64
	trips       uint64
}

// campaignSetup is the protected state a campaign workload runs on.
type campaignSetup struct {
	specs  []campaignSpec
	images []*core.Protected
	meter  *scanMeter
	reg    *obs.Registry
	protMs float64
}

// protect protects one module for a campaign workload. In a
// traced run the protect stages record into reg and every scan goes
// through the meter.
func (s *campaignSetup) protect(rc runConfig, tr *tracer, name string, p corpus.Program) (*core.Protected, error) {
	opts := core.Options{VerifyFuncs: []string{p.VerifyFunc}}
	if rc.trace {
		opts.Obs, opts.ScanFunc = s.reg, s.meter.scan
		s.meter.item = name
	}
	start := time.Now()
	s.meter.parent = tr.open("core.Protect", name, 0)
	prot, err := core.Protect(p.Build(), opts)
	tr.close(s.meter.parent)
	s.protMs += ms(time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("protect %s: %w", name, err)
	}
	if err := gen.CheckProtected(prot); err != nil {
		return nil, fmt.Errorf("protect %s: %w", name, err)
	}
	s.images = append(s.images, prot)
	return prot, nil
}

func newCampaignSetup(tr *tracer) *campaignSetup {
	return &campaignSetup{meter: &scanMeter{tr: tr}, reg: obs.NewRegistry()}
}

// corpusStride is the mutation-site step of the corpus campaigns, the
// CLI's default. It does not come from the seed: with a stride picked
// per seed, the sampled mix of long and short mutants moved throughput
// by a fifth from seed to seed, far more than the host's own noise, and
// the corpus programs themselves are fixed inputs.
const corpusStride = 3

// setupCorpusCampaigns protects the six hand-written programs, each
// campaigned on its own stdin.
func setupCorpusCampaigns(rc runConfig, tr *tracer) (*campaignSetup, error) {
	s := newCampaignSetup(tr)
	for _, p := range corpus.All() {
		if !rc.scale.keepProgram(p.Name) {
			continue
		}
		prot, err := s.protect(rc, tr, p.Name, p)
		if err != nil {
			return nil, err
		}
		s.specs = append(s.specs, campaignSpec{
			name: p.Name + "/idle", prot: prot, stdin: p.Stdin,
			cfg: campaign.Config{
				Workers: rc.workers, Engine: "tb", MaxInst: corpusMaxInst, Timeout: mutantTimeout,
				Stride: corpusStride, MaxMutants: rc.scale.corpusMutants, Kinds: inMemoryKinds,
				Stdin: p.Stdin,
			},
		})
	}
	return s, nil
}

// fingerprint identifies a detection matrix by its rendering.
func fingerprint(rep *campaign.Report) string {
	sum := sha256.Sum256([]byte(rep.String()))
	return hex.EncodeToString(sum[:8])
}

// campaignRun is one campaign's result within a round.
type campaignRun struct {
	rep  *campaign.Report
	wall time.Duration
	cpu  time.Duration // the process's CPU time during the campaign
	snap *obs.Report   // nil in untraced rounds
}

// runCampaign runs one campaign, with a registry when reg is non-nil.
func runCampaign(ctx context.Context, sp *campaignSpec, reg *obs.Registry, tr *tracer, parent int) (campaignRun, error) {
	cfg := sp.cfg
	cfg.Obs = reg
	id := tr.open("campaign.Run", sp.name, parent)
	cpu0, err := cpuTime()
	if err != nil {
		return campaignRun{}, err
	}
	start := time.Now()
	rep, err := campaign.Run(ctx, sp.prot, cfg)
	wall := time.Since(start)
	cpu1, cpuErr := cpuTime()
	tr.close(id)
	if err != nil {
		return campaignRun{}, fmt.Errorf("campaign %s: %w", sp.name, err)
	}
	if cpuErr != nil {
		return campaignRun{}, cpuErr
	}
	run := campaignRun{rep: rep, wall: wall, cpu: cpu1 - cpu0}
	if reg != nil {
		run.snap = reg.Snapshot()
	}
	return run, nil
}

// checkCampaign counts a finished campaign's mutants as attempted and
// fails those the output checks reject: a matrix that differs from the
// reference round, infra-error cells, harness panics, and wall-clock
// watchdog trips. With counters it also requires the matrix's timeouts
// to be exactly the instruction-budget trips and the exact counters to
// match the reference round.
func checkCampaign(sp *campaignSpec, run campaignRun, led *ledger) {
	rep := run.rep
	led.attempt(rep.Mutants)
	if fp := fingerprint(rep); fp != sp.counts.fingerprint {
		led.fail(rep.Mutants, "%s: matrix %s differs from reference %s", sp.name, fp, sp.counts.fingerprint)
	}
	if rep.InfraErrors > 0 {
		led.fail(rep.InfraErrors, "%s: %d infra-error cells", sp.name, rep.InfraErrors)
	}
	if rep.Panics > 0 {
		led.fail(rep.Panics, "%s: %d harness panics", sp.name, rep.Panics)
	}
	if run.snap == nil {
		return
	}
	c := run.snap.Counters
	if n := c["emu.watchdog_trips"]; n > 0 {
		led.fail(int(n), "%s: %d wall-clock watchdog trips", sp.name, n)
	}
	if t := rep.Totals().Timeout; uint64(t) != c["emu.inst_limit_trips"] {
		led.fail(1, "%s: %d timeout cells but %d instruction-budget trips", sp.name, t, c["emu.inst_limit_trips"])
	}
	if rep.Mutants != sp.counts.mutants || c["emu.insts"] != sp.counts.insts ||
		c["emu.runs"] != sp.counts.runs || c["emu.inst_limit_trips"] != sp.counts.trips {
		led.fail(1, "%s: exact counters differ from the reference round", sp.name)
	}
}

// campaignWorkload runs campaign-corpus: set-up, the reference round,
// then timed rounds of every campaign.
func campaignWorkload(ctx context.Context, rc runConfig, led *ledger, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	st, setupS, err := timeSetup(func() (*campaignSetup, error) {
		sp := tr.open("setup", "", 0)
		defer tr.close(sp)
		return setupCorpusCampaigns(rc, tr)
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out["setup_s"] = setupS

	// Protection quality per image; modeled run-time overhead per
	// campaigned (image, profile), each checked against its baseline.
	var guarded, growth, overhead []float64
	for _, prot := range st.images {
		g, t := protectQuality(prot)
		guarded, growth = append(guarded, g), append(growth, t)
	}
	for i := range st.specs {
		sp := &st.specs[i]
		ovh, err := differential(ctx, sp.prot, sp.stdin)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		overhead = append(overhead, ovh)
	}
	out["guarded_bytes_pct"] = mean(guarded)
	out["text_growth_pct"] = mean(growth)
	out["overhead_pct"] = overheadPct(overhead)

	// Reference round, with counters: it fixes each matrix and the exact
	// counters later rounds must reproduce, and checks the counters
	// reconcile with the matrix.
	var measured, silent, gTotal, gChain int
	refSpan := tr.open("reference", "", 0)
	for i := range st.specs {
		sp := &st.specs[i]
		muts, err := campaign.Enumerate(sp.prot, sp.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		run, err := runCampaign(ctx, sp, obs.NewRegistry(), tr, refSpan)
		if err != nil {
			return nil, err
		}
		c := run.snap.Counters
		rc.logf("reference %s: %d mutants, %d instructions, %.3fs", sp.name, run.rep.Mutants, c["emu.insts"], run.wall.Seconds())
		sp.counts = refCounts{
			fingerprint: fingerprint(run.rep), mutants: run.rep.Mutants,
			insts: c["emu.insts"], runs: c["emu.runs"], trips: c["emu.inst_limit_trips"],
		}
		if len(muts) != run.rep.Mutants {
			led.fail(run.rep.Mutants, "%s: %d mutants enumerated but %d classified", sp.name, len(muts), run.rep.Mutants)
		}
		checkCampaign(sp, run, led)
		t := run.rep.Totals()
		measured += t.Total - t.Infra
		silent += t.Silent
		gTotal += run.rep.GuardedTotal
		gChain += run.rep.GuardedChain
	}
	tr.close(refSpan)
	out["detected_pct"] = pct(float64(measured-silent), float64(measured))
	out["guarded_chain_pct"] = pct(float64(gChain), float64(gTotal))

	type roundStats struct {
		wall    time.Duration
		mutants int
		walls   []float64 // wall seconds per campaign, in spec order
		cpus    []float64 // CPU seconds per campaign, in spec order
		layer   map[string]float64
	}
	var plain, traced []roundStats
	err = runRounds(rc, func(tracedRound bool) error {
		rs := roundStats{layer: map[string]float64{}}
		rtr := tr
		if !tracedRound {
			rtr = nil
		}
		round := rtr.open("round", "", 0)
		runs := make([]campaignRun, len(st.specs))
		for i := range st.specs {
			var reg *obs.Registry
			if tracedRound {
				reg = obs.NewRegistry()
			}
			run, err := runCampaign(ctx, &st.specs[i], reg, rtr, round)
			if err != nil {
				return err
			}
			runs[i] = run
			rs.wall += run.wall
			rs.mutants += run.rep.Mutants
			rs.walls = append(rs.walls, run.wall.Seconds())
			rs.cpus = append(rs.cpus, run.cpu.Seconds())
		}
		rtr.close(round)
		rc.logf("round: %d mutants in %.3fs, traced %t", rs.mutants, rs.wall.Seconds(), tracedRound)
		for i := range st.specs {
			checkCampaign(&st.specs[i], runs[i], led)
		}
		if tracedRound {
			if err := campaignLayers(ctx, st, runs, rs.layer, rtr, round); err != nil {
				return err
			}
			traced = append(traced, rs)
		} else {
			plain = append(plain, rs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A round's time is estimated campaign by campaign: stat of each
	// campaign's times over the rounds, summed. A host stall that hits
	// one campaign of one round then moves nothing.
	roundTime := func(rounds []roundStats, times func(roundStats) []float64, stat func([]float64) float64) float64 {
		sum := 0.0
		for i := range st.specs {
			var xs []float64
			for _, rs := range rounds {
				xs = append(xs, times(rs)[i])
			}
			sum += stat(xs)
		}
		return sum
	}
	wallTimes := func(rs roundStats) []float64 { return rs.walls }
	cpuTimes := func(rs roundStats) []float64 { return rs.cpus }
	mutants := float64(plain[0].mutants)
	// throughput is mutants per CPU second, each campaign costed at its
	// fastest round. A campaign's work repeats exactly from round to
	// round (its exact counters are checked), so other load on the host
	// can only add to its time, and the fastest round is the one it
	// disturbed least. CPU time leaves out two things other load adds
	// to wall time: waits for a CPU and time the host took it away.
	out["throughput"] = mutants / roundTime(plain, cpuTimes, minimum)
	out["mutants_per_s"] = mutants / roundTime(plain, wallTimes, median)

	if len(traced) > 0 {
		tracedT, plainT := roundTime(traced, wallTimes, median), roundTime(plain, wallTimes, median)
		out["trace.overhead_pct"] = pct(tracedT-plainT, plainT)
		// Timings are medians over the traced rounds; counts come from
		// the last one (the exact ones are checked equal every round).
		last := traced[len(traced)-1].layer
		for k, v := range last {
			out[k] = v
		}
		for _, k := range []string{"campaign.enumerate_ms", "campaign.execute_s", "emu.clean_run_ms", "emu.tb.minsts_per_s"} {
			var xs []float64
			for _, rs := range traced {
				xs = append(xs, rs.layer[k])
			}
			out[k] = median(xs)
		}
		if err := interpRate(ctx, st, out); err != nil {
			return nil, err
		}
		setupLayers(st, out)
	}
	return out, nil
}

// campaignLayers derives a traced round's per-layer figures from the
// campaigns' registries, and times the two calls campaign.Run makes
// before executing mutants, the clean reference run and the
// enumeration, by making them again through the public APIs.
func campaignLayers(ctx context.Context, st *campaignSetup, runs []campaignRun, out map[string]float64, tr *tracer, parent int) error {
	var (
		c                                  = map[string]uint64{}
		dirtySum, dirtyCount               uint64
		budgetInsts, cleanInsts            float64
		enumerate, clean, execute, runWall time.Duration
	)
	for i := range st.specs {
		sp, run := &st.specs[i], runs[i]
		for k, v := range run.snap.Counters {
			c[k] += v
		}
		h := run.snap.Histograms["emu.dirty_pages"]
		dirtySum += h.Sum
		dirtyCount += h.Count
		budgetInsts += float64(run.snap.Counters["emu.inst_limit_trips"] * sp.cfg.MaxInst)

		start := time.Now()
		if _, err := campaign.Enumerate(sp.prot, sp.cfg); err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		mid := time.Now()
		res := attack.RunWith(ctx, sp.prot.Image, attack.RunConfig{Stdin: sp.stdin, MaxInst: sp.cfg.MaxInst, Engine: "tb"})
		end := time.Now()
		if res.Err != nil {
			return fmt.Errorf("%s: clean run: %w", sp.name, res.Err)
		}
		tr.add("campaign.Enumerate", sp.name, parent, start, mid)
		tr.add("attack.RunWith", sp.name, parent, mid, end)
		enumerate += mid.Sub(start)
		clean += end.Sub(mid)
		cleanInsts += float64(res.Icount)
		execute += run.wall - end.Sub(start)
		runWall += run.wall
	}
	for _, k := range []string{"emu.insts", "emu.runs", "emu.inst_limit_trips", "emu.watchdog_trips",
		"emu.faults", "emu.tb.translations", "emu.tb.chain_hits", "emu.tb.invalidations",
		"emu.restores", "campaign.mutants", "campaign.infra_errors", "campaign.panics"} {
		out[k] = float64(c[k])
	}
	out["emu.tb.catalog_hit_pct"] = pct(float64(c["emu.tb.catalog_hits"]), float64(c["emu.tb.catalog_hits"]+c["emu.tb.catalog_misses"]))
	out["emu.dirty_pages_mean"] = float64(dirtySum) / float64(max(dirtyCount, 1))
	out["emu.clean_run_ms"] = ms(clean)
	out["emu.tb.minsts_per_s"] = cleanInsts / 1e6 / clean.Seconds()
	out["campaign.enumerate_ms"] = ms(enumerate)
	out["campaign.execute_s"] = execute.Seconds()
	out["campaign.insts_per_mutant"] = (float64(c["emu.insts"]) - cleanInsts) / float64(max(c["campaign.mutants"], 1))
	out["campaign.budget_insts_pct"] = pct(budgetInsts, float64(c["emu.insts"]))
	return nil
}

// interpRate re-times every campaign's clean run on the interpreter.
func interpRate(ctx context.Context, st *campaignSetup, out map[string]float64) error {
	var insts float64
	var wall time.Duration
	for i := range st.specs {
		sp := &st.specs[i]
		start := time.Now()
		res := attack.RunWith(ctx, sp.prot.Image, attack.RunConfig{Stdin: sp.stdin, MaxInst: sp.cfg.MaxInst, Engine: "interp"})
		wall += time.Since(start)
		if res.Err != nil {
			return fmt.Errorf("%s: interpreter clean run: %w", sp.name, res.Err)
		}
		insts += float64(res.Icount)
	}
	out["emu.interp.minsts_per_s"] = insts / 1e6 / wall.Seconds()
	return nil
}

// setupLayers reports the protect work of a traced run's set-up: the
// layers that move setup_s.
func setupLayers(st *campaignSetup, out map[string]float64) {
	out["gadget.scans"] = float64(st.meter.scans)
	out["gadget.scan_ms"] = ms(st.meter.nanos)
	out["gadget.scan_mib_per_s"] = st.meter.mibPerSec()
	out["core.protect_ms"] = st.protMs
	stageMetrics(out, st.reg.Snapshot())
}

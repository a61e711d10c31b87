package main

import (
	"context"
	"fmt"
	"time"

	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/dyngen"
	"parallax/internal/farm"
	"parallax/internal/image"
	"parallax/internal/ir"
	"parallax/internal/obs"
)

// protectJob is one entry of the protect-batch job list.
type protectJob struct {
	name string
	// size names the decade of a generated program ("16k", "160k",
	// "1600k"); empty for the hand-written corpus.
	size     string
	module   *ir.Module
	opts     core.Options
	stdin    []byte
	textKiB  float64 // baseline text size: the job's input size
	expected string  // output hash from the sequential reference pass
}

// genSpec is one generated program of a workload: a gen family at a
// size decade, optionally composed with the §VI-C checksum network.
type genSpec struct {
	family   string
	size     string
	checkers int
}

// protectGen lists the generated programs protect-batch adds to the
// corpus jobs; the small one carries the composed checksum network so
// the compose stage is part of the batch.
var protectGen = []genSpec{
	{family: "tiny", size: "16k"},
	{family: "small", size: "160k", checkers: 4},
	{family: "medium", size: "1600k"},
}

// chainModes are the four chain-generation strategies of Fig. 5.
var chainModes = []dyngen.Mode{dyngen.ModeStatic, dyngen.ModeXor, dyngen.ModeRC4, dyngen.ModeProb}

// buildProtectJobs generates and builds every job's module and its
// baseline image: the set-up of protect-batch.
func buildProtectJobs(rc runConfig) ([]protectJob, error) {
	var jobs []protectJob
	for _, p := range corpus.All() {
		if !rc.scale.keepProgram(p.Name) {
			continue
		}
		for _, mode := range chainModes {
			jobs = append(jobs, protectJob{
				name:   p.Name + "/" + mode.String(),
				module: p.Build(),
				opts:   core.Options{VerifyFuncs: []string{p.VerifyFunc}, ChainMode: mode},
				stdin:  p.Stdin,
			})
		}
	}
	for _, g := range protectGen {
		if !rc.scale.keepFamily(g.family) {
			continue
		}
		p, err := genProgram(g.family, genSeed(rc.seed, 0))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, protectJob{
			name:   p.Name,
			size:   g.size,
			module: p.Build(),
			opts:   core.Options{VerifyFuncs: []string{p.VerifyFunc}, ComposeChecksum: g.checkers},
			stdin:  p.Stdin,
		})
	}
	for i := range jobs {
		base, err := codegen.Build(jobs[i].module, image.Layout{})
		if err != nil {
			return nil, fmt.Errorf("%s: baseline build: %w", jobs[i].name, err)
		}
		if err := gen.CheckImage(base); err != nil {
			return nil, fmt.Errorf("%s: baseline image: %w", jobs[i].name, err)
		}
		jobs[i].textKiB = float64(len(base.Text().Data)) / 1024
	}
	return jobs, nil
}

// genSeed derives the seed of a workload's k-th generated program of a
// family (k < 4) from the run's seed.
func genSeed(seed, k uint64) uint64 { return seed<<2 | k }

func genProgram(family string, seed uint64) (corpus.Program, error) {
	fam, err := gen.FamilyByName(family)
	if err != nil {
		return corpus.Program{}, err
	}
	return gen.FamilyProgram(fam, seed)
}

// protectBatch is the protect-batch workload: the job list protected
// through one farm per iteration, a cold round on an empty cache and a
// warm round resubmitting every job to the same farm.
func protectBatch(ctx context.Context, rc runConfig, led *ledger, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	jobs, setupS, err := timeSetup(func() ([]protectJob, error) {
		sp := tr.open("setup", "", 0)
		defer tr.close(sp)
		return buildProtectJobs(rc)
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out["setup_s"] = setupS
	var totalKiB float64
	for _, j := range jobs {
		totalKiB += j.textKiB
	}

	// Reference pass: every job protected sequentially by core.Protect,
	// without farm or cache. Its outputs are checked for behaviour and
	// their hashes become what every farm round must reproduce.
	meter := &scanMeter{tr: tr}
	refSpan := tr.open("reference", "", 0)
	var guarded, growth, overhead []float64
	for i := range jobs {
		j := &jobs[i]
		led.attempt(1)
		opts := j.opts
		opts.ScanFunc = meter.scan
		meter.item = j.name
		meter.parent = tr.open("core.Protect", j.name, refSpan)
		prot, err := core.Protect(j.module, opts)
		tr.close(meter.parent)
		if err != nil {
			return nil, fmt.Errorf("reference protect %s: %w", j.name, err)
		}
		if err := gen.CheckProtected(prot); err != nil {
			return nil, fmt.Errorf("reference protect %s: %w", j.name, err)
		}
		ovh, err := differential(ctx, prot, j.stdin)
		if err != nil {
			return nil, fmt.Errorf("reference protect %s: %w", j.name, err)
		}
		if j.expected, err = imageHash(prot.Image); err != nil {
			return nil, err
		}
		g, t := protectQuality(prot)
		guarded, growth, overhead = append(guarded, g), append(growth, t), append(overhead, ovh)
	}
	tr.close(refSpan)
	out["guarded_bytes_pct"] = mean(guarded)
	out["text_growth_pct"] = mean(growth)
	out["overhead_pct"] = overheadPct(overhead)
	out["gadget.scan_mib_per_s"] = meter.mibPerSec()

	type roundStats struct {
		cold, warm time.Duration
		coldCPU    time.Duration // the process's CPU time in the cold round
		results    []farm.Result // cold round, job order
		coldRep    *obs.Report
		coldStats  farm.Stats
		warmStats  farm.Stats
	}
	var plain, traced []roundStats
	err = runRounds(rc, func(tracedRound bool) error {
		var reg *obs.Registry
		var rtr *tracer
		if tracedRound {
			reg, rtr = obs.NewRegistry(), tr
		}
		f := farm.New(farm.Config{Workers: rc.workers, Obs: reg})
		defer f.Close()
		var rs roundStats
		var warmRes []farm.Result
		cpu0, err := cpuTime()
		if err != nil {
			return err
		}
		if rs.results, rs.cold, err = farmRound(ctx, f, jobs, reg, rtr, "round.cold"); err != nil {
			return err
		}
		cpu1, err := cpuTime()
		if err != nil {
			return err
		}
		rs.coldCPU = cpu1 - cpu0
		rs.coldStats, rs.coldRep = f.Stats(), reg.Snapshot()
		if warmRes, rs.warm, err = farmRound(ctx, f, jobs, reg, rtr, "round.warm"); err != nil {
			return err
		}
		rs.warmStats = f.Stats().Delta(rs.coldStats)
		rc.logf("round: cold %.3fs (%.3f CPU s), warm %.3fs, traced %t", rs.cold.Seconds(), rs.coldCPU.Seconds(), rs.warm.Seconds(), tracedRound)
		for _, res := range [][]farm.Result{rs.results, warmRes} {
			checkFarmResults(jobs, res, led)
		}
		if tracedRound {
			traced = append(traced, rs)
		} else {
			plain = append(plain, rs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// End-to-end figures come from the untraced rounds.
	var coldRate, coldCPU, warmRate []float64
	latency := map[string][]float64{}
	for _, rs := range plain {
		coldRate = append(coldRate, totalKiB/rs.cold.Seconds())
		coldCPU = append(coldCPU, rs.coldCPU.Seconds())
		warmRate = append(warmRate, totalKiB/rs.warm.Seconds())
		for i, res := range rs.results {
			if s := jobs[i].size; s != "" {
				latency[s] = append(latency[s], ms(res.Runtime))
			}
		}
	}
	// throughput is KiB per CPU second of the fastest cold round, for the
	// reasons campaign throughput is (see campaignWorkload): every cold
	// round does the same work, checked by its output hashes.
	out["throughput"] = totalKiB / minimum(coldCPU)
	out["protect_kib_per_s"] = median(coldRate)
	out["protect_warm_kib_per_s"] = median(warmRate)
	for _, g := range protectGen {
		out["protect_ms_"+g.size] = median(latency[g.size])
	}

	if len(traced) > 0 {
		var coldT, plainT []float64
		var scanMs, protMs, queueMs []float64
		for _, rs := range traced {
			coldT = append(coldT, rs.cold.Seconds())
			scanMs = append(scanMs, ms(rs.coldStats.ScanTime))
			queueMs = append(queueMs, ms(rs.coldStats.QueueWait))
			var busy time.Duration
			for _, res := range rs.results {
				busy += res.Runtime
			}
			protMs = append(protMs, ms(busy))
		}
		for _, rs := range plain {
			plainT = append(plainT, rs.cold.Seconds())
		}
		last := traced[len(traced)-1]
		out["trace.overhead_pct"] = pct(median(coldT)-median(plainT), median(plainT))
		out["gadget.scan_ms"] = median(scanMs)
		out["gadget.scans"] = float64(last.coldStats.ScanMisses)
		out["core.protect_ms"] = median(protMs)
		out["farm.queue_wait_ms"] = median(queueMs)
		out["farm.scan_hit_pct"] = pct(float64(last.warmStats.ScanHits), float64(last.warmStats.ScanHits+last.warmStats.ScanMisses))
		out["farm.hint_hit_pct"] = pct(float64(last.warmStats.HintHits), float64(last.warmStats.HintHits+last.warmStats.HintMisses))
		out["farm.jobs_failed"] = float64(last.coldStats.JobsFailed + last.warmStats.JobsFailed)
		stageMetrics(out, last.coldRep)
		for _, rs := range traced {
			if rs.coldStats.ScanMisses != last.coldStats.ScanMisses ||
				rs.coldRep.Stages["scan"].Count != last.coldRep.Stages["scan"].Count {
				led.fail(1, "exact protect counters differ between traced rounds")
			}
		}
	}
	return out, nil
}

// stageMetrics copies the core pipeline's stage spans out of a
// registry report: the pass count and per-stage busy time.
func stageMetrics(out map[string]float64, rep *obs.Report) {
	st := rep.Stages
	// Every fixpoint pass runs exactly one scan stage.
	out["core.passes"] = float64(st["scan"].Count)
	out["core.rewrite_ms"] = ms(st["rewrite"].Total())
	out["core.layout_ms"] = ms(st["layout"].Total())
	out["core.chain_compile_ms"] = ms(st["chain-compile"].Total())
	out["core.install_ms"] = ms(st["install"].Total())
	out["core.compose_ms"] = ms(st["compose"].Total())
	out["codegen.build_ms"] = ms(st["codegen"].Total())
}

// farmRound submits every job to f and waits for all of them. It
// returns the results in job order and the round's wall time. With a
// tracer, each job becomes a span with its queue wait and protect time
// as children, rebuilt from the farm's own per-job timings.
func farmRound(ctx context.Context, f *farm.Farm, jobs []protectJob, reg *obs.Registry, tr *tracer, name string) ([]farm.Result, time.Duration, error) {
	round := tr.open(name, "", 0)
	start := time.Now()
	futures := make([]*farm.Job, len(jobs))
	submitted := make([]time.Time, len(jobs))
	for i, j := range jobs {
		opts := j.opts
		opts.Obs = reg
		submitted[i] = time.Now()
		fj, err := f.Submit(ctx, j.name, j.module, opts)
		if err != nil {
			return nil, 0, err
		}
		futures[i] = fj
	}
	results := make([]farm.Result, len(jobs))
	for i, fj := range futures {
		res, err := fj.Wait(ctx)
		if err != nil {
			return nil, 0, err
		}
		results[i] = res
	}
	wall := time.Since(start)
	tr.close(round)
	for i, res := range results {
		pick := submitted[i].Add(res.QueueWait)
		done := pick.Add(res.Runtime)
		id := tr.add("farm.job", jobs[i].name, round, submitted[i], done)
		tr.add("farm.queue", jobs[i].name, id, submitted[i], pick)
		tr.add("core.Protect", jobs[i].name, id, pick, done)
	}
	return results, wall, nil
}

// checkFarmResults counts every job of a farm round as attempted and
// every job error or output that differs from the reference as failed.
// It drops the checked outputs so rounds do not pile them up.
func checkFarmResults(jobs []protectJob, results []farm.Result, led *ledger) {
	led.attempt(len(results))
	for i := range results {
		res := &results[i]
		if res.Err != nil {
			led.fail(1, "%s: farm job failed: %v", jobs[i].name, res.Err)
			continue
		}
		h, err := imageHash(res.Protected.Image)
		if err != nil || h != jobs[i].expected {
			led.fail(1, "%s: farm output differs from the sequential reference", jobs[i].name)
		}
		res.Protected = nil
	}
}

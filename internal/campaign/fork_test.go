package campaign

import (
	"context"
	"fmt"
	"testing"
	"time"

	"parallax/internal/attack"
	"parallax/internal/core"
	"parallax/internal/emu"
	"parallax/internal/emu/tb"
	"parallax/internal/image"
	"parallax/internal/obs"
	"parallax/internal/x86"
)

// corpusCampaign is the benchmark's corpus campaign configuration:
// byte patches a cracker would apply, every third byte, 16 mutants, a
// 20M-instruction budget.
func corpusCampaign(stdin []byte) Config {
	return Config{
		Workers: 4, Stride: 3, MaxMutants: 16, MaxInst: 20_000_000,
		Timeout: time.Minute, Stdin: stdin,
		Kinds: []Kind{KindBitFlip, KindByteSet, KindNopSweep},
	}
}

// runResults executes the mutants through the worker pool against ref
// and returns every mutant's run result.
func runResults(t *testing.T, prot *core.Protected, mutants []Mutant, ref *reference, cfg Config) []attack.RunResult {
	t.Helper()
	r, err := newRunner(prot, mutants, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.results = make([]attack.RunResult, len(mutants))
	if _, panics, err := r.execute(context.Background(), mutants, nil, nil); err != nil || panics != 0 {
		t.Fatalf("execute: %d panics, err %v", panics, err)
	}
	return r.results
}

// sameRun reports how two runs of one mutant differ: status, stdout,
// error, final EIP or instruction count ("" when they agree).
func sameRun(a, b attack.RunResult) string {
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %d vs %d", a.Status, b.Status)
	case a.Stdout != b.Stdout:
		return fmt.Sprintf("stdout %q vs %q", a.Stdout, b.Stdout)
	case fmt.Sprint(a.Err) != fmt.Sprint(b.Err):
		return fmt.Sprintf("error %v vs %v", a.Err, b.Err)
	case a.EIP != b.EIP:
		return fmt.Sprintf("eip %#x vs %#x", a.EIP, b.EIP)
	case a.Icount != b.Icount:
		return fmt.Sprintf("icount %d vs %d", a.Icount, b.Icount)
	}
	return ""
}

// TestForkEquivalence runs every in-memory mutant twice on the
// snapshot/restore path, under both engines: from the image entry and
// from its fork point, with 4 workers sharing the recorded checkpoints.
// The two runs must agree in status, stdout, error, final EIP and
// instruction count, and an untouched mutant's skipped run must be the
// clean run. The inputs are the wget and gzip corpus campaigns plus a
// generated program under its heavy stdin profile, whose checkpoints
// carry consumed stdin. Only the generated program runs under the race
// detector.
func TestForkEquivalence(t *testing.T) {
	type target struct {
		name string
		prot *core.Protected
		cfg  Config
	}
	var targets []target
	if !raceEnabled {
		for _, name := range []string{"wget", "gzip"} {
			prot, stdin := protectedCorpus(t, name)
			targets = append(targets, target{name: name, prot: prot, cfg: corpusCampaign(stdin)})
		}
	}
	prot, heavy := workloadTarget(t)
	targets = append(targets, target{name: "gen-tiny-heavy", prot: prot, cfg: Config{
		Workers: 4, Stride: 7, MaxMutants: 64, MaxInst: 4_000_000,
		Timeout: time.Minute, Stdin: heavy,
	}})

	for _, tg := range targets {
		for _, engine := range []string{"interp", "tb"} {
			t.Run(tg.name+"/"+engine, func(t *testing.T) {
				cfg := tg.cfg
				cfg.Engine = engine
				cfg = cfg.withDefaults()
				mutants, err := Enumerate(tg.prot, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := cleanReference(t, tg.prot, mutants, cfg)
				if ref.forks == nil {
					t.Fatal("snapshot/restore campaign recorded no fork plan")
				}
				entry := *ref
				entry.forks = nil
				fromEntry := runResults(t, tg.prot, mutants, &entry, cfg)
				forked := runResults(t, tg.prot, mutants, ref, cfg)

				var mid, untouched int
				for i, m := range mutants {
					if m.Kind == KindSerial {
						continue
					}
					f := ref.forks[i]
					switch {
					case f.untouched:
						untouched++
					case f.from != nil:
						mid++
					}
					if d := sameRun(fromEntry[i], forked[i]); d != "" {
						t.Errorf("mutant %d (%v, fork %+v): %s", i, m, f, d)
					}
				}
				if mid == 0 {
					t.Error("no mutant started past the image entry")
				}
				t.Logf("%d mutants: %d from a mid-run checkpoint, %d untouched, %d checkpoints",
					len(mutants), mid, untouched, ref.checkpoints)
			})
		}
	}
}

// The boundary program runs one optional prefix instruction, counts
// ECX down from boundaryLoops and then returns the byte at
// boundaryData as its exit status. Without a prefix the read is
// instruction emu.CheckpointEvery; with one it is the instruction
// right after a checkpoint taken at emu.CheckpointEvery.
const (
	boundaryText  = 0x08048000
	boundaryData  = 0x0A000000
	boundaryLoops = (emu.CheckpointEvery - 2) / 2
)

// boundaryCPU loads the boundary program, ready to run.
func boundaryCPU(t *testing.T, prefix *x86.Inst) *emu.CPU {
	t.Helper()
	b := x86.NewBuilder(boundaryText)
	if prefix != nil {
		b.I(*prefix)
	}
	b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.ECX), Src: x86.ImmOp(boundaryLoops)})
	b.Label("loop")
	b.I(x86.Inst{Op: x86.DEC, W: 32, Dst: x86.RegOp(x86.ECX)})
	b.JccL(x86.CondNE, "loop")
	b.I(x86.Inst{Op: x86.MOVZX, W: 8, Dst: x86.RegOp(x86.EAX), Src: x86.MemAbs(boundaryData)})
	b.I(x86.Inst{Op: x86.RET, W: 32})
	code, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c := emu.New()
	for _, sg := range []struct {
		name       string
		addr, size uint32
		data       []byte
		perm       image.Perm
	}{
		{".text", boundaryText, 0x1000, code, image.PermR | image.PermX},
		{".data", boundaryData, 0x1000, []byte{7}, image.PermR | image.PermW},
		{"[stack]", emu.DefaultStackTop - 0x10000, 0x10000, nil, image.PermR | image.PermW},
	} {
		seg, err := c.Mem.Map(sg.name, sg.addr, sg.size, sg.perm)
		if err != nil {
			t.Fatal(err)
		}
		copy(seg.Data, sg.data)
	}
	c.Reg[x86.ESP] = emu.DefaultStackTop - 16
	if err := c.Push32(emu.ExitSentinel); err != nil {
		t.Fatal(err)
	}
	c.EIP = boundaryText
	c.MaxInst = 2 * emu.CheckpointEvery
	c.CheckStride = 1 // poll, and so maybe checkpoint, before every instruction or block
	c.OS = emu.NewOS(nil)
	return c
}

// runBoundary runs c to completion on the named engine.
func runBoundary(t *testing.T, c *emu.CPU, engine string) {
	t.Helper()
	var err error
	if engine == "tb" {
		e := tb.New(c, nil)
		err = e.RunContext(context.Background())
		e.Close()
	} else {
		err = c.RunContext(context.Background())
	}
	if err != nil || !c.Exited {
		t.Fatalf("run: exited %t, err %v", c.Exited, err)
	}
}

// TestForkPointBoundary is the off-by-one regression for first-touch
// mapping. A checkpoint taken right before the reading instruction
// must be the fork point (the read is the first instruction after it),
// and one taken right after the read must not be: an access stamped
// with Icount is one too high, since the interpreter counts an
// instruction before executing it, and would pick the later one. A
// store is a touch too: when the program overwrites the byte before
// the checkpoint, forking there would revive a dead mutation. The run
// forked from the chosen point must match the mutated run from the
// entry on both engines.
func TestForkPointBoundary(t *testing.T) {
	nop := x86.Inst{Op: x86.NOP}
	store := x86.Inst{Op: x86.MOV, W: 8, Dst: x86.MemAbs(boundaryData), Src: x86.ImmOp(9)}
	for _, engine := range []string{"interp", "tb"} {
		for _, tc := range []struct {
			name   string
			prefix *x86.Inst
			wantAt uint64 // fork checkpoint's Icount; 0 is the entry
			status int32  // the mutated run's exit status
		}{
			{"first-after-checkpoint", &nop, emu.CheckpointEvery, 0xCC},
			{"last-before-checkpoint", nil, 0, 0xCC},
			{"overwritten-before-checkpoint", &store, 0, 9},
		} {
			t.Run(engine+"/"+tc.name, func(t *testing.T) {
				rc := boundaryCPU(t, tc.prefix)
				rec := rc.Record(rc.Snapshot(), []uint32{boundaryData})
				runBoundary(t, rc, engine)
				rec.Stop()
				cp, touched := rec.ForkPoint(boundaryData, 1)
				if !touched {
					t.Fatal("the access was not recorded as a touch")
				}
				at := uint64(0)
				if cp != nil {
					at = cp.Icount
				}
				if at != tc.wantAt {
					t.Fatalf("fork point at Icount %d, want %d", at, tc.wantAt)
				}

				want := boundaryCPU(t, tc.prefix)
				if err := want.Patch(boundaryData, []byte{0xCC}); err != nil {
					t.Fatal(err)
				}
				runBoundary(t, want, engine)

				got := boundaryCPU(t, tc.prefix)
				got.Snapshot()
				if cp != nil {
					if err := got.Resume(cp); err != nil {
						t.Fatal(err)
					}
					if err := got.OS.(*emu.OS).Resume(cp); err != nil {
						t.Fatal(err)
					}
				}
				if err := got.Patch(boundaryData, []byte{0xCC}); err != nil {
					t.Fatal(err)
				}
				runBoundary(t, got, engine)
				if got.Status != want.Status || got.Icount != want.Icount || want.Status != tc.status {
					t.Fatalf("forked run: status %#x icount %d; from entry: status %#x icount %d",
						got.Status, got.Icount, want.Status, want.Icount)
				}
			})
		}
	}
}

// TestForkMetricsReconcile holds the campaign's instruction counters
// to an identity: instructions executed (emu.insts) plus the clean-run
// prefixes forks skipped (campaign.fork_skipped_insts) equal the sum
// of every run's final instruction count — which is exactly what the
// clone+reload oracle, running every mutant from the entry, executes.
func TestForkMetricsReconcile(t *testing.T) {
	if raceEnabled {
		t.Skip("corpus campaign skipped under -race")
	}
	prot, stdin := protectedCorpus(t, "wget")
	cfg := corpusCampaign(stdin)
	cfg.Engine = "tb"

	run := func(cfg Config) map[string]uint64 {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		if _, err := Run(context.Background(), prot, cfg); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters
	}
	fork := run(cfg)
	reloadCfg := cfg
	reloadCfg.Reload = true
	reload := run(reloadCfg)

	executed, skipped := fork["emu.insts"], fork["campaign.fork_skipped_insts"]
	if executed+skipped != reload["emu.insts"] {
		t.Fatalf("executed %d + skipped %d = %d, want the from-entry total %d",
			executed, skipped, executed+skipped, reload["emu.insts"])
	}
	if skipped == 0 || fork["campaign.checkpoints"] == 0 {
		t.Fatalf("no fork skipped anything: %d skipped, %d checkpoints", skipped, fork["campaign.checkpoints"])
	}
	if reload["campaign.fork_skipped_insts"] != 0 || reload["campaign.untouched_mutants"] != 0 {
		t.Fatal("the clone+reload oracle forked")
	}
	runs := fork["emu.runs"] + fork["campaign.untouched_mutants"]
	if runs != reload["emu.runs"] {
		t.Fatalf("%d runs + %d untouched mutants, want %d runs", fork["emu.runs"],
			fork["campaign.untouched_mutants"], reload["emu.runs"])
	}

	// The same identity run by run: the final instruction counts of the
	// clean run and every mutant run (the clean run's for an untouched
	// mutant) sum to executed plus skipped.
	cfg = cfg.withDefaults()
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := cleanReference(t, prot, mutants, cfg)
	sum := ref.clean.Icount
	for _, res := range runResults(t, prot, mutants, ref, cfg) {
		sum += res.Icount
	}
	if sum != executed+skipped {
		t.Fatalf("final instruction counts sum to %d, want %d", sum, executed+skipped)
	}
	t.Logf("wget: %d executed + %d skipped = %d (%.1f%% skipped), %d untouched mutants, %d checkpoints",
		executed, skipped, sum, 100*float64(skipped)/float64(sum),
		fork["campaign.untouched_mutants"], fork["campaign.checkpoints"])
}

// TestCampaignStages: every campaign records its three phases as
// stages, each exactly once.
func TestCampaignStages(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Workers: 2, Stride: 5, MaxMutants: 60, MaxInst: 2_000_000, Obs: reg}
	if _, err := Run(context.Background(), protectedTarget(t), cfg); err != nil {
		t.Fatal(err)
	}
	stages := reg.Snapshot().Stages
	for _, name := range []string{"campaign.clean", "campaign.enumerate", "campaign.execute"} {
		if n := stages[name].Count; n != 1 {
			t.Errorf("stage %s recorded %d times, want 1", name, n)
		}
	}
}

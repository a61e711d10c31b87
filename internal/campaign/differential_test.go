package campaign

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"parallax/internal/core"
	"parallax/internal/corpus"
)

// diffConfig is the shared differential-test configuration: a generous
// wall-clock watchdog so hangs die deterministically on the instruction
// budget, never on timing. maxInst must exceed the program's clean-run
// instruction count (wget ≈ 3.4M, nginx ≈ 18M).
func diffConfig(workers int, maxInst uint64, maxMutants int) Config {
	return Config{
		Workers:    workers,
		Stride:     5,
		MaxMutants: maxMutants,
		MaxInst:    maxInst,
		Timeout:    60 * time.Second,
	}
}

// cleanReference is cleanRun for tests; cfg must have defaults applied.
func cleanReference(t *testing.T, prot *core.Protected, mutants []Mutant, cfg Config) *reference {
	t.Helper()
	ref, err := cleanRun(context.Background(), prot, mutants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// assertSameClasses runs the same mutant set through the clone+reload
// path and the snapshot/restore path (which starts each mutant at its
// fork point) and requires byte-identical per-mutant classification
// vectors.
func assertSameClasses(t *testing.T, prot *core.Protected, mutants []Mutant, cfg Config) {
	t.Helper()
	cfg = cfg.withDefaults()
	reloadCfg := cfg
	reloadCfg.Reload = true
	reload, panics, err := executeAll(context.Background(), prot, mutants,
		cleanReference(t, prot, mutants, reloadCfg), reloadCfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if panics != 0 {
		t.Fatalf("reload path: %d harness panics", panics)
	}
	snapCfg := cfg
	snapCfg.Reload = false
	snap, panics, err := executeAll(context.Background(), prot, mutants,
		cleanReference(t, prot, mutants, snapCfg), snapCfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if panics != 0 {
		t.Fatalf("snapshot path: %d harness panics", panics)
	}

	diverged := 0
	for i := range mutants {
		if reload[i] != snap[i] {
			diverged++
			if diverged <= 10 {
				t.Errorf("mutant %d (%v): reload=%v snapshot=%v",
					i, mutants[i], reload[i], snap[i])
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%d of %d mutants classified differently between paths", diverged, len(mutants))
	}
}

// protectedCorpus protects one seed corpus program for campaigning.
func protectedCorpus(t *testing.T, name string) (*core.Protected, []byte) {
	t.Helper()
	p, err := corpus.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := core.Protect(p.Build(), core.Options{
		VerifyFuncs: []string{p.VerifyFunc}, Workload: p.Stdin,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prot, p.Stdin
}

// TestDifferentialTarget is the always-on differential: the synthetic
// campaign target, every mutation kind, and the full Run reports
// compared field for field. Cheap enough to run under the race
// detector too.
func TestDifferentialTarget(t *testing.T) {
	prot := protectedTarget(t)
	cfg := Config{
		Stride:     3,
		MaxMutants: 400,
		MaxInst:    2_000_000,
		Timeout:    60 * time.Second,
	}
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameClasses(t, prot, mutants, cfg)

	reloadCfg := cfg
	reloadCfg.Reload = true
	repReload, err := Run(context.Background(), prot, reloadCfg)
	if err != nil {
		t.Fatal(err)
	}
	repSnap, err := Run(context.Background(), prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repReload, repSnap) {
		t.Errorf("reports differ between paths:\nreload:\n%s\nsnapshot:\n%s",
			repReload, repSnap)
	}
}

// TestDifferentialCorpus: the enumerated campaign over the seed wget
// and nginx corpus must classify identically on both execution paths,
// and (for wget) the full Run reports must match field for field.
func TestDifferentialCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("corpus differential skipped under -race (covered by the synthetic target)")
	}
	cases := []struct {
		name       string
		maxInst    uint64
		maxMutants int
		reports    bool
	}{
		{"wget", 6_000_000, 60, true},
		{"nginx", 25_000_000, 24, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prot, stdin := protectedCorpus(t, tc.name)
			cfg := diffConfig(1, tc.maxInst, tc.maxMutants)
			cfg.Stdin = stdin

			mutants, err := Enumerate(prot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameClasses(t, prot, mutants, cfg)
			if !tc.reports {
				return
			}
			reloadCfg := cfg
			reloadCfg.Reload = true
			repReload, err := Run(context.Background(), prot, reloadCfg)
			if err != nil {
				t.Fatal(err)
			}
			repSnap, err := Run(context.Background(), prot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(repReload, repSnap) {
				t.Errorf("reports differ between paths:\nreload:\n%s\nsnapshot:\n%s",
					repReload, repSnap)
			}
		})
	}
}

// TestDifferentialRandomMutants throws seeded-random byte patches at
// both paths, deliberately including sites outside initialized data
// (BSS tails) and section edges, where the two paths' bounds handling
// could plausibly diverge.
func TestDifferentialRandomMutants(t *testing.T) {
	if raceEnabled {
		t.Skip("corpus differential skipped under -race (covered by the synthetic target)")
	}
	prot, stdin := protectedCorpus(t, "wget")
	sections := prot.Image.Sections
	if len(sections) == 0 {
		t.Fatal("protected image has no sections")
	}

	r := rand.New(rand.NewSource(1))
	var mutants []Mutant
	for i := 0; i < 60; i++ {
		sec := sections[r.Intn(len(sections))]
		// Bias toward edges: full Size span includes BSS, which the
		// clone path's WriteAt rejects — parity there matters most.
		off := uint32(r.Intn(int(sec.Size)))
		if i%5 == 0 && sec.Size > 4 {
			off = sec.Size - uint32(1+r.Intn(4))
		}
		m := Mutant{
			Region:  regionOf(prot.Image, sec.Addr+off),
			Addr:    sec.Addr + off,
			Len:     1,
			Guarded: i%2 == 0,
		}
		switch r.Intn(3) {
		case 0:
			m.Kind = KindBitFlip
			m.Bit = uint8(r.Intn(8))
		case 1:
			m.Kind = KindByteSet
		default:
			m.Kind = KindNopSweep
			m.Len = 1 + r.Intn(6)
		}
		mutants = append(mutants, m)
	}
	cfg := diffConfig(1, 6_000_000, 0)
	cfg.Stdin = stdin
	assertSameClasses(t, prot, mutants, cfg)
}

// TestDifferentialMultiWorker is the -race variant: several workers
// per path, each with its own vmEngine, sharing nothing but the base
// image — and still the identical classification vector. Uses the
// synthetic target so the race build can afford it.
func TestDifferentialMultiWorker(t *testing.T) {
	prot := protectedTarget(t)
	cfg := Config{
		Workers:    4,
		Stride:     3,
		MaxMutants: 400,
		MaxInst:    2_000_000,
		Timeout:    60 * time.Second,
	}
	mutants, err := Enumerate(prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameClasses(t, prot, mutants, cfg)
}

// External test package: the golden jobs include a generated program,
// and internal/corpus/gen imports core.
package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/dyngen"
	"parallax/internal/ir"
)

var update = flag.Bool("update", false, "rewrite the protect output golden")

const protectGolden = "testdata/protect_hashes.golden"

// goldenJob is one pinned Protect invocation.
type goldenJob struct {
	name   string
	module func() *ir.Module
	opts   core.Options
}

// goldenJobs lists the pinned jobs: every corpus program in the four
// chain modes, one chain-checksummed job, and a generated program with
// the composed checksum network.
func goldenJobs(t *testing.T) []goldenJob {
	t.Helper()
	var jobs []goldenJob
	modes := []dyngen.Mode{dyngen.ModeStatic, dyngen.ModeXor, dyngen.ModeRC4, dyngen.ModeProb}
	for _, p := range corpus.All() {
		for _, mode := range modes {
			jobs = append(jobs, goldenJob{
				name:   p.Name + "/" + mode.String(),
				module: p.Build,
				opts:   core.Options{VerifyFuncs: []string{p.VerifyFunc}, ChainMode: mode},
			})
		}
	}
	wget, err := corpus.ByName("wget")
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, goldenJob{
		name:   "wget/static+cschk",
		module: wget.Build,
		opts:   core.Options{VerifyFuncs: []string{wget.VerifyFunc}, ChecksumChains: true},
	})
	fam, err := gen.FamilyByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := gen.FamilyProgram(fam, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, goldenJob{
		name:   "gen-tiny-s1/static+compose4",
		module: tiny.Build,
		opts:   core.Options{VerifyFuncs: []string{tiny.VerifyFunc}, ComposeChecksum: 4},
	})
	return jobs
}

// TestProtectGolden pins the SHA-256 of every golden job's protected
// image. Protection is deterministic, so any drift means a pipeline
// change altered the output bytes; -update rewrites the golden.
func TestProtectGolden(t *testing.T) {
	var b strings.Builder
	for _, j := range goldenJobs(t) {
		p, err := core.Protect(j.module(), j.opts)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		h := sha256.New()
		if _, err := p.Image.WriteTo(h); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", j.name, hex.EncodeToString(h.Sum(nil)))
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(protectGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(protectGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(protectGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("protected images drifted from %s:\n--- golden ---\n%s--- got ---\n%s",
			protectGolden, want, got)
	}
}

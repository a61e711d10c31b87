// External test package: the oracle is checked against protected
// corpus images, and internal/core imports gadget.
package gadget_test

import (
	"reflect"
	"testing"

	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/corpus/gen"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/x86"
)

// oracleConfigs are the scanner configs the differential checks cover:
// the default, near returns only, and a tighter length bound.
var oracleConfigs = []struct {
	name string
	cfg  gadget.ScanConfig
}{
	{"default", gadget.ScanConfig{}},
	{"skipfar", gadget.ScanConfig{SkipFar: true}},
	{"short", gadget.ScanConfig{MaxInsts: 3, MaxBytes: 10}},
}

// oracleScan is the reference scanner: a linear sweep for alignment,
// then an independent forward decode from every byte offset. It
// decodes each instruction once per walk that crosses it, which the
// table-driven gadget.ScanBytes must reproduce exactly.
func oracleScan(code []byte, base uint32, cfg gadget.ScanConfig) []*gadget.Gadget {
	cfg = cfg.WithDefaults()
	aligned := make([]bool, len(code))
	for off := 0; off < len(code); {
		aligned[off] = true
		inst, err := x86.Decode(code[off:], base+uint32(off))
		if err != nil {
			off++
			continue
		}
		off += inst.Len
	}
	var out []*gadget.Gadget
	for off := 0; off < len(code); off++ {
		g := scanAt(code, base, off, cfg)
		if g == nil {
			continue
		}
		g.Aligned = aligned[off]
		out = append(out, g)
	}
	return out
}

// scanAt decodes a gadget candidate starting at offset off.
func scanAt(code []byte, base uint32, off int, cfg gadget.ScanConfig) *gadget.Gadget {
	var insts []x86.Inst
	pos := off
	for len(insts) < cfg.MaxInsts {
		if pos-off >= cfg.MaxBytes || pos >= len(code) {
			return nil
		}
		inst, err := x86.Decode(code[pos:], base+uint32(pos))
		if err != nil {
			return nil
		}
		if pos-off+inst.Len > cfg.MaxBytes {
			return nil
		}
		insts = append(insts, inst)
		pos += inst.Len
		if inst.Op == x86.RET || inst.Op == x86.RETF {
			if inst.Op == x86.RETF && cfg.SkipFar {
				return nil
			}
			g := &gadget.Gadget{
				Addr:  base + uint32(off),
				Len:   pos - off,
				Insts: insts,
			}
			if !gadget.Classify(g) {
				return nil
			}
			return g
		}
	}
	return nil
}

// checkOracle compares ScanBytes against the oracle on one buffer.
func checkOracle(t *testing.T, what string, code []byte, base uint32, cfg gadget.ScanConfig) {
	t.Helper()
	got := gadget.ScanBytes(code, base, cfg)
	want := oracleScan(code, base, cfg)
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d gadgets, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: gadget %d differs:\n got    %v %+v\n oracle %v %+v",
				what, i, got[i], *got[i], want[i], *want[i])
		}
	}
}

// oracleImages returns the six protected corpus images, their
// baselines, and the baseline of one generated medium program.
func oracleImages(t *testing.T) (names []string, imgs []*image.Image) {
	t.Helper()
	for _, p := range corpus.All() {
		prot, err := core.Protect(p.Build(), core.Options{VerifyFuncs: []string{p.VerifyFunc}})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		names = append(names, p.Name+"/protected", p.Name+"/baseline")
		imgs = append(imgs, prot.Image, prot.Baseline)
	}
	fam, err := gen.FamilyByName("medium")
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.FamilyProgram(fam, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := codegen.Build(p.Build(), image.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	return append(names, p.Name), append(imgs, img)
}

// TestScanBytesMatchesOracle checks the table-driven scanner against
// the per-offset oracle on every executable section of real images,
// under each oracle config.
func TestScanBytesMatchesOracle(t *testing.T) {
	names, imgs := oracleImages(t)
	for _, c := range oracleConfigs {
		t.Run(c.name, func(t *testing.T) {
			for i, img := range imgs {
				for _, s := range img.Sections {
					if s.Perm&image.PermX == 0 {
						continue
					}
					checkOracle(t, names[i]+":"+s.Name, s.Data, s.Addr, c.cfg)
				}
			}
		})
	}
}

// BenchmarkScanBytes scans the text of a generated medium (1.6 MiB
// class) image under the default config.
func BenchmarkScanBytes(b *testing.B) {
	fam, err := gen.FamilyByName("medium")
	if err != nil {
		b.Fatal(err)
	}
	p, err := gen.FamilyProgram(fam, 1)
	if err != nil {
		b.Fatal(err)
	}
	img, err := codegen.Build(p.Build(), image.Layout{})
	if err != nil {
		b.Fatal(err)
	}
	text := img.Text()
	b.SetBytes(int64(len(text.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gadget.ScanBytes(text.Data, text.Addr, gadget.ScanConfig{})
	}
}

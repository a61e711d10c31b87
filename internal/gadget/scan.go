package gadget

import (
	"parallax/internal/image"
	"parallax/internal/x86"
)

// ScanConfig tunes the gadget scanner.
type ScanConfig struct {
	// MaxInsts is the longest considered gadget in instructions
	// (including the return). Zero means 6, the paper's §VII-A limit
	// ("we limited the length of the considered gadgets to six
	// instructions").
	MaxInsts int
	// MaxBytes bounds a gadget's byte length. Zero means 24.
	MaxBytes int
	// IncludeFar controls whether retf-terminated gadgets are scanned
	// (§IV-B5). Default true; set SkipFar to disable.
	SkipFar bool
}

func (c ScanConfig) withDefaults() ScanConfig {
	if c.MaxInsts == 0 {
		c.MaxInsts = 6
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 24
	}
	return c
}

// Decode-table entry kinds: what the instruction at an offset means to
// a forward walk. An offset that does not decode has length 0, which
// ends every walk before its kind is read.
const (
	stepBody  uint8 = iota // not a return
	stepRet                // a return this config accepts: ends a candidate
	stepSkipR              // retf under SkipFar: ends the walk, no gadget
)

// decodeTable decodes every offset of code exactly once and records the
// instruction's length and step kind. Decoding is a pure function of
// the bytes from the offset to the end of code and of the address, so
// every walk that crosses an offset sees the same instruction there.
func decodeTable(code []byte, base uint32, cfg ScanConfig) (lens, kinds []uint8) {
	lens = make([]uint8, len(code))
	kinds = make([]uint8, len(code))
	for off := range code {
		inst, err := x86.Decode(code[off:], base+uint32(off))
		if err != nil {
			continue
		}
		lens[off] = uint8(inst.Len)
		switch {
		case inst.Op == x86.RET, inst.Op == x86.RETF && !cfg.SkipFar:
			kinds[off] = stepRet
		case inst.Op == x86.RETF:
			kinds[off] = stepSkipR
		}
	}
	return lens, kinds
}

// ScanBytes finds every gadget in code (loaded at base): for each byte
// offset, walk forward; a sequence of at most MaxInsts instructions
// within MaxBytes ending in ret/retf is a candidate, which the
// classifier then types. Each offset is decoded once into a table that
// the walks and the aligned sweep share; only candidates are decoded
// in full.
func ScanBytes(code []byte, base uint32, cfg ScanConfig) []*Gadget {
	cfg = cfg.withDefaults()
	lens, kinds := decodeTable(code, base, cfg)

	// Mark aligned instruction starts from a linear sweep so gadgets
	// can report whether they hide inside the instruction stream.
	aligned := make([]bool, len(code))
	for off := 0; off < len(code); {
		aligned[off] = true
		if lens[off] == 0 {
			off++
			continue
		}
		off += int(lens[off])
	}

	var out []*Gadget
	var buf []x86.Inst
	for off := range code {
		end, ok := walk(lens, kinds, off, cfg)
		if !ok {
			continue
		}
		// Candidates are rare, so only they are decoded in full, into a
		// reused buffer that a kept gadget copies out of. Every offset
		// of the walk decoded when the table was built.
		buf = buf[:0]
		for pos := off; pos < end; {
			inst, _ := x86.Decode(code[pos:], base+uint32(pos))
			buf = append(buf, inst)
			pos += inst.Len
		}
		g := Gadget{Addr: base + uint32(off), Len: end - off, Insts: buf}
		if !classify(&g) {
			continue
		}
		g.Insts = append([]x86.Inst(nil), buf...)
		g.Aligned = aligned[off]
		out = append(out, &g)
	}
	return out
}

// walk follows the decode table forward from off under cfg's limits
// and reports the end offset of the candidate starting at off, or false
// when no accepted return ends the walk in bounds.
func walk(lens, kinds []uint8, off int, cfg ScanConfig) (end int, ok bool) {
	pos := off
	for n := 0; n < cfg.MaxInsts; n++ {
		if pos-off >= cfg.MaxBytes || pos >= len(lens) {
			return 0, false
		}
		l := int(lens[pos])
		if l == 0 || pos-off+l > cfg.MaxBytes {
			return 0, false
		}
		switch kinds[pos] {
		case stepRet:
			return pos + l, true
		case stepSkipR:
			return 0, false
		}
		pos += l
	}
	return 0, false
}

// Scan finds and indexes all gadgets in an image's executable sections.
func Scan(img *image.Image, cfg ScanConfig) *Catalog {
	var all []*Gadget
	for _, s := range img.Sections {
		if s.Perm&image.PermX == 0 {
			continue
		}
		all = append(all, ScanBytes(s.Data, s.Addr, cfg)...)
	}
	c := NewCatalog(all)
	c.Sort()
	return c
}

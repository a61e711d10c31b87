package gadget_test

import (
	"testing"

	"parallax/internal/gadget"
)

// FuzzScan feeds arbitrary bytes to the scanner: no panics, every
// reported gadget lies inside the buffer with a sane length, and the
// catalog equals the per-offset oracle's under every oracle config.
func FuzzScan(f *testing.F) {
	f.Add([]byte{0x58, 0xC3, 0x01, 0xD8, 0xC3})
	f.Add([]byte{0xB8, 0x58, 0xC3, 0x00, 0x00, 0xC3})
	f.Add([]byte{0x5A, 0xCB, 0x58, 0xCA, 0x04, 0x00})
	f.Fuzz(func(t *testing.T, code []byte) {
		const base = 0x1000
		for _, g := range gadget.ScanBytes(code, base, gadget.ScanConfig{}) {
			lo, hi := g.Range()
			if lo < base || hi > base+uint32(len(code)) || g.Len <= 0 {
				t.Fatalf("gadget out of bounds: %v over %d bytes", g, len(code))
			}
			if g.Kind != gadget.KindOther && len(g.Insts) == 0 {
				t.Fatalf("typed gadget without instructions: %v", g)
			}
		}
		for _, c := range oracleConfigs {
			checkOracle(t, c.name, code, base, c.cfg)
		}
	})
}

package core

import (
	"testing"

	"parallax/internal/corpus"
	"parallax/internal/gadget"
)

// TestPreferOverlapMatchesLinear checks the binary-search overlap
// predicate against a linear walk over application function spans, for
// every gadget of every protected corpus image and for the addresses
// around each span edge.
func TestPreferOverlapMatchesLinear(t *testing.T) {
	for _, p := range corpus.All() {
		prot, err := Protect(p.Build(), Options{VerifyFuncs: []string{p.VerifyFunc}})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		verify := map[string]bool{}
		for _, v := range prot.VerifyFuncs {
			verify[v] = true
		}
		linear := func(addr uint32) bool {
			for _, s := range prot.Image.Funcs() {
				if len(s.Name) >= 2 && s.Name[:2] == ".." || verify[s.Name] {
					continue
				}
				if addr >= s.Addr && addr < s.Addr+s.Size {
					return true
				}
			}
			return false
		}
		prefer := preferOverlap(prot.Image, prot.VerifyFuncs)
		addrs := []uint32{0, ^uint32(0)}
		for _, g := range prot.Catalog.Gadgets {
			addrs = append(addrs, g.Addr)
		}
		for _, s := range prot.Image.Funcs() {
			addrs = append(addrs, s.Addr-1, s.Addr, s.Addr+s.Size-1, s.Addr+s.Size)
		}
		for _, a := range addrs {
			if got, want := prefer(&gadget.Gadget{Addr: a}), linear(a); got != want {
				t.Fatalf("%s: preferOverlap(%#x) = %v, linear walk says %v", p.Name, a, got, want)
			}
		}
	}
}

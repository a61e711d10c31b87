package emu

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"

	"parallax/internal/image"
	"parallax/internal/x86"
)

// This file is the fork-point machinery of tamper campaigns. A clean
// run is recorded once: a byte-granular watch reports when each
// address a campaign will mutate is first touched, and checkpoints of
// the whole run (machine and kernel state) are taken along the way. A
// mutant then starts from the latest checkpoint taken before any of its
// bytes was touched — up to that point its run is the clean run,
// instruction for instruction — instead of from the program entry.

// byteWatch is one segment's armed first-touch watch: a bit per
// segment byte, cleared as each watched byte is first touched.
type byteWatch struct {
	bits []uint64
	left int               // watched bytes not yet touched
	hit  func(addr uint32) // called once per watched byte, at its first touch
}

// Touch reports an access to segment bytes [off, off+n): a data read,
// a data write or an instruction fetch. The memory bus calls it on
// every checked access; an engine reading or writing Data directly
// (after its own bounds and permission checks) must call it too. With
// no watch armed on the segment it costs one nil check.
func (s *Segment) Touch(off, n uint32) {
	if s.watch != nil {
		s.touch(off, n)
	}
}

func (s *Segment) touch(off, n uint32) {
	w := s.watch
	for i := off; i < off+n; i++ {
		if w.bits[i>>6]&(1<<(i&63)) == 0 {
			continue
		}
		w.bits[i>>6] &^= 1 << (i & 63)
		w.left--
		w.hit(s.Addr + i)
	}
	if w.left == 0 {
		s.watch = nil
	}
}

// Touch reports an access to [addr, addr+n), which may span
// segments; unmapped bytes are ignored. Translation engines report
// each block's code bytes here when they create it.
func (m *Memory) Touch(addr, n uint32) {
	for end := addr + n; addr < end; {
		s := m.Segment(addr)
		if s == nil {
			addr++
			continue
		}
		hi := min(end, s.End())
		s.Touch(addr-s.Addr, hi-addr)
		addr = hi
	}
}

// watchBytes arms a first-touch watch on addrs: hit is called with
// each address the first time an instruction reads, writes or fetches
// it, and never again. Unmapped addresses are ignored. Writes count as
// touches because a byte overwritten before it is read no longer holds
// whatever a mutation put there. watchBytes replaces any earlier
// watch; unwatch disarms it.
func (m *Memory) watchBytes(addrs []uint32, hit func(addr uint32)) {
	m.unwatch()
	for _, a := range addrs {
		s := m.Segment(a)
		if s == nil {
			continue
		}
		if s.watch == nil {
			s.watch = &byteWatch{bits: make([]uint64, (len(s.Data)+63)/64), hit: hit}
		}
		off := a - s.Addr
		if s.watch.bits[off>>6]&(1<<(off&63)) == 0 {
			s.watch.bits[off>>6] |= 1 << (off & 63)
			s.watch.left++
		}
	}
}

// unwatch disarms every segment's first-touch watch.
func (m *Memory) unwatch() {
	for _, s := range m.segs {
		s.watch = nil
	}
}

// Checkpoint is a capture of a recorded run in progress that does not
// belong to any CPU: registers, EIP, flags, counters and exit state,
// the memory pages that differ from the recording's base snapshot, and
// the kernel state (output so far, stdin consumed, ptrace latch,
// getrandom state). Any CPU loaded from the same image and rewound to
// that base can be fast-forwarded to it with Resume, and its kernel
// with OS.Resume. A Checkpoint is immutable once taken, so concurrent
// campaign workers share them.
type Checkpoint struct {
	// Icount is the run's instruction count at the checkpoint.
	Icount uint64
	cycles uint64

	reg    [x86.NumRegs]uint32
	eip    uint32
	flags  uint32
	exited bool
	status int32

	pages []pageImage
	slab  []byte // backing store of every pages[i].data

	stdout, stderr []byte
	stdinRead      int64
	traced         bool
	randState      uint32
}

// pageImage is one captured page: its address and its bytes (a full
// PageSize, or less at a segment's end).
type pageImage struct {
	addr uint32
	data []byte
}

// Resume fast-forwards the CPU to cp. The CPU must hold the recording's
// base state (Restore of a snapshot taken at the same point of the same
// image, overlay disarmed): Resume writes cp's pages over it, marks
// them dirty so the next Restore rewinds them, and announces every
// executable page on the code-invalidation bus, then sets registers,
// flags, counters and exit state. The kernel's half is OS.Resume.
func (c *CPU) Resume(cp *Checkpoint) error {
	for _, p := range cp.pages {
		s := c.Mem.Segment(p.addr)
		if s == nil || p.addr+uint32(len(p.data)) > s.End() {
			return fmt.Errorf("emu: checkpoint page %#x does not fit this address space", p.addr)
		}
		off := p.addr - s.Addr
		copy(s.Data[off:], p.data)
		s.markDirty(off, uint32(len(p.data)))
		if s.Perm&image.PermX != 0 {
			c.Mem.notifyCodeInvalidate(p.addr, p.addr+uint32(len(p.data)))
		}
	}
	c.Reg = cp.reg
	c.EIP = cp.eip
	c.SetFlags(cp.flags)
	c.Icount = cp.Icount
	c.Cycles = cp.cycles
	c.Exited = cp.exited
	c.Status = cp.status
	return nil
}

// Resume fast-forwards a fresh kernel (NewOS over the recorded run's
// stdin) to cp: the output written so far, stdin consumed, the ptrace
// latch and the getrandom state.
func (os *OS) Resume(cp *Checkpoint) error {
	os.Stdout.Write(cp.stdout)
	os.Stderr.Write(cp.stderr)
	os.traced = cp.traced
	os.RandState = cp.randState
	if cp.stdinRead > 0 {
		if os.Stdin == nil {
			return fmt.Errorf("emu: checkpoint consumed %d stdin bytes but the kernel has no stdin", cp.stdinRead)
		}
		if _, err := io.CopyN(io.Discard, os.Stdin, cp.stdinRead); err != nil {
			return fmt.Errorf("emu: skipping %d consumed stdin bytes: %w", cp.stdinRead, err)
		}
	}
	os.stdinRead = cp.stdinRead
	return nil
}

// Recording observes one run from a snapshot point: it keeps the
// first-touch map of a set of watched addresses and the checkpoints a
// run mutating them can start from.
//
// Checkpoints are taken only at the run loops' poll boundaries, once
// CheckpointEvery instructions have retired since the last one. A
// checkpoint is kept only if some watched byte is first touched while
// it is the latest, and each byte maps to that checkpoint — not to an
// instruction count. (An instruction's data accesses happen after Step
// has already counted it, so a touch stamped with Icount is one too
// high, and the checkpoint taken right after the touching instruction
// would wrongly look earlier than the touch.)
type Recording struct {
	cpu  *CPU
	base *Snapshot
	due  uint64 // Icount from which the next poll takes a checkpoint

	cps   []*Checkpoint  // kept checkpoints, oldest first; cps[0] is the start when kept
	cur   *Checkpoint    // latest checkpoint taken
	start *Checkpoint    // the checkpoint taken at Record time
	first map[uint32]int // watched address -> index into cps
}

// CheckpointEvery is the recording interval: a checkpoint is taken at
// the first poll boundary at least this many instructions after the
// previous one.
const CheckpointEvery = 1 << 16

// Record starts recording c from base, a snapshot just taken of c,
// watching every address in watch for its first touch. The kernel must
// be installed on c (as *OS) before the run, so checkpoints capture its
// state. Engines driving c must call Recording().Poll at their poll
// boundaries with the CPU's flags up to date; a translation engine must
// also report each block's code bytes with Memory.Touch when it creates
// it, and must start the run with no translations, since chained
// blocks never return to the dispatcher. Stop ends the recording.
func (c *CPU) Record(base *Snapshot, watch []uint32) *Recording {
	r := &Recording{cpu: c, base: base, due: c.Icount + CheckpointEvery,
		first: make(map[uint32]int, len(watch))}
	r.start = r.capture(nil)
	r.cur = r.start
	c.rec = r
	c.Mem.watchBytes(watch, r.touched)
	return r
}

// Recording returns the recording armed on c, or nil.
func (c *CPU) Recording() *Recording { return c.rec }

// Stop disarms the recording and the memory watch.
func (r *Recording) Stop() {
	if r.cpu.rec == r {
		r.cpu.rec = nil
		r.cpu.Mem.unwatch()
	}
}

// curKept reports whether the latest checkpoint is kept.
func (r *Recording) curKept() bool {
	return len(r.cps) > 0 && r.cps[len(r.cps)-1] == r.cur
}

// touched is the memory watch's hit callback.
func (r *Recording) touched(addr uint32) {
	if !r.curKept() {
		r.cps = append(r.cps, r.cur)
	}
	r.first[addr] = len(r.cps) - 1
}

// Poll is the run loops' checkpoint hook, called at every poll
// boundary: it takes a checkpoint when one is due. The latest
// checkpoint is overwritten in place when no watched byte was touched
// since it was taken.
func (r *Recording) Poll() {
	c := r.cpu
	if c.Icount < r.due {
		return
	}
	r.due = c.Icount + CheckpointEvery
	var reuse *Checkpoint
	if r.cur != r.start && !r.curKept() {
		reuse = r.cur
	}
	r.cur = r.capture(reuse)
}

// Kept is the number of checkpoints taken after the run's start that
// some watched byte maps to.
func (r *Recording) Kept() int {
	if len(r.cps) > 0 && r.cps[0] == r.start {
		return len(r.cps) - 1
	}
	return len(r.cps)
}

// ForkPoint returns the checkpoint a run that changes [addr, addr+n)
// can start from: the latest one taken before any of those bytes was
// first touched. It is nil when that is the recording's start, and
// touched is false when the recorded run never touched them at all —
// such a run is the recorded run.
func (r *Recording) ForkPoint(addr, n uint32) (cp *Checkpoint, touched bool) {
	k := -1
	for a := addr; a < addr+n; a++ {
		if i, ok := r.first[a]; ok && (k < 0 || i < k) {
			k = i
		}
	}
	if k < 0 {
		return nil, false
	}
	if r.cps[k] == r.start {
		return nil, true
	}
	return r.cps[k], true
}

// capture takes a checkpoint of the recorded CPU, reusing into's
// storage when it is non-nil.
func (r *Recording) capture(into *Checkpoint) *Checkpoint {
	c := r.cpu
	cp := into
	if cp == nil {
		cp = &Checkpoint{}
	}
	cp.Icount, cp.cycles = c.Icount, c.Cycles
	cp.reg, cp.eip, cp.flags = c.Reg, c.EIP, c.Flags()
	cp.exited, cp.status = c.Exited, c.Status
	cp.pages, cp.slab = cp.pages[:0], cp.slab[:0]
	for _, sb := range r.base.segs {
		seg := sb.seg
		size := uint32(len(seg.Data))
		for w, word := range seg.dirty {
			for ; word != 0; word &= word - 1 {
				lo := (uint32(w)*64 + uint32(bits.TrailingZeros64(word))) * PageSize
				hi := min(lo+PageSize, size)
				if bytes.Equal(seg.Data[lo:hi], sb.baseline[lo:hi]) {
					continue
				}
				cp.slab = append(cp.slab, seg.Data[lo:hi]...)
				cp.pages = append(cp.pages, pageImage{addr: seg.Addr + lo, data: seg.Data[lo:hi]})
			}
		}
	}
	// Point the pages into the slab only now that it has stopped
	// growing; until here data aliases live memory for its length.
	at := 0
	for i := range cp.pages {
		n := len(cp.pages[i].data)
		cp.pages[i].data = cp.slab[at : at+n : at+n]
		at += n
	}
	cp.stdout, cp.stderr = cp.stdout[:0], cp.stderr[:0]
	cp.stdinRead, cp.traced, cp.randState = 0, false, 0
	if os, ok := c.OS.(*OS); ok {
		cp.stdout = append(cp.stdout, os.Stdout.Bytes()...)
		cp.stderr = append(cp.stderr, os.Stderr.Bytes()...)
		cp.stdinRead, cp.traced, cp.randState = os.stdinRead, os.traced, os.RandState
	}
	return cp
}

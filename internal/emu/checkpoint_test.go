package emu

import (
	"context"
	"testing"

	"parallax/internal/x86"
)

// kernelProgram exercises every piece of kernel state a checkpoint
// carries. Before a loop longer than CheckpointEvery it writes "abc",
// reads two stdin bytes, draws four getrandom bytes and latches ptrace;
// after the loop it reads two more stdin bytes into tail and writes
// them, then writes the second ptrace result (-EPERM once latched) and
// four more random bytes.
func kernelProgram(t *testing.T) []byte {
	sys := func(b *x86.Builder, num, a1, a2, a3 int32) {
		b.I(ri(x86.MOV, x86.EAX, num))
		b.I(ri(x86.MOV, x86.EBX, a1))
		b.I(ri(x86.MOV, x86.ECX, a2))
		b.I(ri(x86.MOV, x86.EDX, a3))
		b.I(x86.Inst{Op: x86.INT, W: 32, Imm: 0x80})
	}
	msg, head, rnd, tail := int32(testDataBase), int32(testDataBase+0x10), int32(testDataBase+0x20), int32(testDataBase+0x40)
	return asm(t, func(b *x86.Builder) {
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(uint32(msg)), Src: x86.ImmOp(0x636261)})
		sys(b, SysWrite, 1, msg, 3)
		sys(b, SysRead, 0, head, 2)
		sys(b, SysGetrand, rnd, 4, 0)
		sys(b, SysPtrace, PtraceTraceme, 0, 0)
		b.I(ri(x86.MOV, x86.ESI, CheckpointEvery))
		b.Label("loop")
		b.I(x86.Inst{Op: x86.DEC, W: 32, Dst: x86.RegOp(x86.ESI)})
		b.JccL(x86.CondNE, "loop")
		sys(b, SysRead, 0, tail, 2)
		sys(b, SysWrite, 1, tail, 2)
		sys(b, SysPtrace, PtraceTraceme, 0, 0)
		b.I(x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(uint32(rnd)), Src: x86.RegOp(x86.EAX)})
		sys(b, SysGetrand, rnd+4, 4, 0)
		sys(b, SysWrite, 1, rnd, 8)
		b.I(ri(x86.MOV, x86.EAX, 0))
		b.I(x86.Inst{Op: x86.RET, W: 32})
	})
}

// TestCheckpointResumesKernel records the kernel program, forks it from
// the last checkpoint before the second stdin read touches its buffer,
// and requires the forked run to finish exactly like the run from the
// entry: same output, stdin continuing where the checkpoint left it,
// the ptrace latch held and the getrandom stream continued.
func TestCheckpointResumesKernel(t *testing.T) {
	code := kernelProgram(t)
	stdin := []byte("wxyz")
	tail := uint32(testDataBase + 0x40)

	rc := testCPU(t, code)
	rc.CheckStride = 1
	rc.OS = NewOS(stdin)
	rec := rc.Record(rc.Snapshot(), []uint32{tail})
	if err := rc.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec.Stop()
	cp, touched := rec.ForkPoint(tail, 1)
	if !touched || cp == nil {
		t.Fatalf("fork point %v (touched %t), want a mid-run checkpoint", cp, touched)
	}
	if string(cp.stdout) != "abc" || cp.stdinRead != 2 || !cp.traced || cp.randState == 0 {
		t.Fatalf("checkpoint kernel state: stdout %q, stdin read %d, traced %t, rand %#x",
			cp.stdout, cp.stdinRead, cp.traced, cp.randState)
	}

	want := testCPU(t, code)
	want.OS = NewOS(stdin)
	if err := want.Run(); err != nil {
		t.Fatal(err)
	}

	got := testCPU(t, code)
	got.Snapshot()
	if err := got.Resume(cp); err != nil {
		t.Fatal(err)
	}
	os := NewOS(stdin)
	if err := os.Resume(cp); err != nil {
		t.Fatal(err)
	}
	got.OS = os
	if err := got.Run(); err != nil {
		t.Fatal(err)
	}
	wantOut := want.OS.(*OS).Stdout.String()
	if gotOut := os.Stdout.String(); gotOut != wantOut || got.Icount != want.Icount || got.Status != want.Status {
		t.Fatalf("forked run: stdout %q icount %d status %d; from entry: stdout %q icount %d status %d",
			gotOut, got.Icount, got.Status, wantOut, want.Icount, want.Status)
	}
	if wantOut[3:5] != "yz" {
		t.Fatalf("second read got %q, want the stdin bytes after the first read", wantOut[3:5])
	}
}

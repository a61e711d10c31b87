package emu

import (
	"context"
	"fmt"

	"parallax/internal/chaos"
	"parallax/internal/image"
	"parallax/internal/x86"
)

// DefaultCheckStride is the instruction interval between context
// checks in RunContext when CPU.CheckStride is zero. Small enough that
// a cancelled run stops within microseconds, large enough that the
// check never shows up in profiles.
const DefaultCheckStride = 4096

// DeadlineError reports a run stopped by its context: the watchdog
// fired while the program was still executing. It wraps the context's
// error, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) both work.
type DeadlineError struct {
	EIP    uint32
	Icount uint64
	Err    error
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("emu: run cancelled at eip=%#x after %d instructions: %v",
		e.EIP, e.Icount, e.Err)
}

func (e *DeadlineError) Unwrap() error { return e.Err }

// StackOverflowError reports a push (or call) that ran off the bottom
// of the stack segment: the configured stack budget is exhausted. It
// wraps the underlying memory fault.
type StackOverflowError struct {
	ESP uint32
	EIP uint32
	Err error
}

func (e *StackOverflowError) Error() string {
	return fmt.Sprintf("emu: stack overflow at esp=%#x (eip=%#x): %v", e.ESP, e.EIP, e.Err)
}

func (e *StackOverflowError) Unwrap() error { return e.Err }

// LoadConfig tunes LoadImageWith's resource budgets. The zero value
// reproduces LoadImage: the default stack and no memory budget.
type LoadConfig struct {
	// StackSize is the stack segment size in bytes; 0 means
	// DefaultStackSize. Values below MinStackSize are rejected.
	StackSize uint32
	// MemBudget caps the total mapped bytes (sections + stack); 0 means
	// unlimited. Exceeding it surfaces as a *MemBudgetError — a
	// malformed image declaring gigabyte sections fails cleanly instead
	// of exhausting host memory.
	MemBudget uint64
	// Chaos, when non-nil, arms the loader's and the loaded CPU's
	// fault-injection points (chaos.PointEmuMemAlloc at each segment
	// map, chaos.PointEmuBudget at run-poll boundaries).
	Chaos *chaos.Injector
}

// MinStackSize is the smallest accepted LoadConfig.StackSize: room for
// the exit sentinel, the entry frame, and a few calls.
const MinStackSize uint32 = 256

// LoadImageWith is LoadImage with explicit resource budgets.
func LoadImageWith(img *image.Image, cfg LoadConfig) (*CPU, error) {
	stackSize := cfg.StackSize
	if stackSize == 0 {
		stackSize = DefaultStackSize
	}
	if stackSize < MinStackSize {
		return nil, fmt.Errorf("emu: stack size %d below minimum %d", stackSize, MinStackSize)
	}
	if stackSize > DefaultStackTop {
		return nil, fmt.Errorf("emu: stack size %d exceeds stack top %#x", stackSize, DefaultStackTop)
	}
	c := New()
	c.Mem.Budget = cfg.MemBudget
	c.Chaos = cfg.Chaos
	for _, s := range img.Sections {
		if err := cfg.Chaos.FireNext(chaos.PointEmuMemAlloc); err != nil {
			return nil, fmt.Errorf("emu: mapping %s: %w", s.Name, err)
		}
		seg, err := c.Mem.Map(s.Name, s.Addr, s.Size, s.Perm)
		if err != nil {
			return nil, err
		}
		copy(seg.Data, s.Data)
	}
	stackBase := DefaultStackTop - stackSize
	if _, err := c.Mem.Map("[stack]", stackBase, stackSize,
		image.PermR|image.PermW); err != nil {
		return nil, err
	}
	c.stackBase = stackBase
	c.Reg[x86.ESP] = DefaultStackTop - 16
	if err := c.push32(ExitSentinel); err != nil {
		return nil, err
	}
	c.EIP = img.Entry
	return c, nil
}

// RunContext executes until the program exits, faults, hits the
// instruction budget, or ctx is done. Cancellation is checked every
// CheckStride instructions (DefaultCheckStride when zero), so a
// deadline stops even a program that never faults — the watchdog
// primitive the tamper-campaign engine builds on.
func (c *CPU) RunContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	limit := c.MaxInst
	if limit == 0 {
		limit = DefaultMaxInst
	}
	stride := c.CheckStride
	if stride == 0 {
		stride = DefaultCheckStride
	}
	if err := ctx.Err(); err != nil {
		return &DeadlineError{EIP: c.EIP, Icount: c.Icount, Err: err}
	}
	next := c.Icount + stride
	for !c.Exited {
		if c.Icount >= limit {
			return fmt.Errorf("%w (%d instructions, eip=%#x)", ErrInstLimit, c.Icount, c.EIP)
		}
		if c.Icount >= next {
			if err := ctx.Err(); err != nil {
				return &DeadlineError{EIP: c.EIP, Icount: c.Icount, Err: err}
			}
			if err := c.Chaos.FireNext(chaos.PointEmuBudget); err != nil {
				// Forced watchdog exhaustion: surfaces with the shape of
				// a real deadline trip, marked injected via the wrapped
				// chaos error.
				return &DeadlineError{EIP: c.EIP, Icount: c.Icount, Err: err}
			}
			if c.rec != nil {
				c.rec.Poll()
			}
			next = c.Icount + stride
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

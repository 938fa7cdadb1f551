package tensor

import (
	"math/bits"
	"sync"
)

// The arena is a process-wide recycler for large transient buffers: GEMM
// pack panels, im2col columns, training activations and gradients, and
// inference-engine workspace memory draw float32 buffers from it, a
// training max pool's argmax bytes, and the int8 kernels' quantized
// activations and columns. During SA search and distillation the same
// buffer sizes recur millions of times; recycling them keeps the
// allocation rate (and GC pause pressure) flat regardless of search length.
//
// Each element type has its own arenaOf, which keeps one pool per size
// class, so a lease only ever meets buffers big enough for it: with a
// single pool, a small lease taken and returned between two large ones
// reorders the free list, the next large lease draws the small buffer, and
// the arena allocates and drops one buffer per mismatch. Classes are
// quarter powers of two (4, 5, 6, 7, 8, 10, 12, 14, 16, 20, … elements), so
// a buffer carries at most 25% slack.
//
// Entries are *[]T so that Put does not allocate a fresh interface box for
// the slice header on every call (storing a bare slice in a sync.Pool
// heap-allocates the header each time).

// arenaClasses covers every length an int can address.
const arenaClasses = 4 * 62

// arenaOf is the size-classed recycler for buffers of one element type.
type arenaOf[T any] [arenaClasses]sync.Pool

var (
	arena   arenaOf[float32]
	arenaU8 arenaOf[byte]
	arenaI8 arenaOf[int8]
)

// get returns a buffer of length n with unspecified contents.
func (a *arenaOf[T]) get(n int) *[]T {
	c := classFor(n)
	if p, _ := a[c].Get().(*[]T); p != nil {
		*p = (*p)[:n]
		return p
	}
	b := make([]T, n, classCap(c))
	return &b
}

// put returns a buffer to the pool of the largest class its capacity
// covers; nil and buffers below the smallest class are dropped.
func (a *arenaOf[T]) put(p *[]T) {
	if p == nil {
		return
	}
	if c := classOf(cap(*p)); c >= 0 {
		a[c].Put(p)
	}
}

// classCap is the capacity of size class c: (4+q)·2^e for c = 4e+q.
func classCap(c int) int { return (4 + c%4) << (c / 4) }

// classFor returns the smallest size class whose capacity holds n floats.
func classFor(n int) int {
	if n <= 4 {
		return 0
	}
	e := bits.Len(uint(n-1)) - 3 // (n-1)>>e lies in [4, 8)
	q := (n + 1<<e - 1) >> e     // ceil(n / 2^e), in [5, 8]
	return 4*e + q - 4
}

// classOf returns the largest size class whose capacity fits in cap, or -1
// when cap is below the smallest class.
func classOf(cap int) int {
	if cap < 4 {
		return -1
	}
	e := bits.Len(uint(cap)) - 3 // cap>>e lies in [4, 8)
	return 4*e + cap>>e - 4
}

// GetBuf returns a zeroed buffer of length n from the arena. The returned
// pointer must be handed back with PutBuf when the buffer is dead; the
// slice must not be used after that.
func GetBuf(n int) *[]float32 {
	p := GetBufDirty(n)
	clear(*p)
	return p
}

// GetBufDirty is GetBuf without the zero fill, for callers that overwrite
// every element before reading.
func GetBufDirty(n int) *[]float32 { return arena.get(n) }

// GrowBuf resizes a long-lived arena lease to length n: the buffer is kept
// when its capacity already suffices, and exchanged through the arena
// otherwise. It is the resize primitive for execution-plan slab leases,
// whose length follows the largest batch an instance has seen. p may be nil
// (first lease). Contents are unspecified either way.
func GrowBuf(p *[]float32, n int) *[]float32 {
	if p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	if p != nil {
		PutBuf(p)
	}
	return GetBufDirty(n)
}

// PutBuf returns a buffer to the arena.
func PutBuf(p *[]float32) { arena.put(p) }

// GetBufU8 returns a byte buffer of length n from the arena. Contents are
// unspecified; callers overwrite every element before reading. Release
// with PutBufU8.
func GetBufU8(n int) *[]byte { return arenaU8.get(n) }

// PutBufU8 returns a byte buffer to the arena.
func PutBufU8(p *[]byte) { arenaU8.put(p) }

// GetBufI8 returns an int8 buffer of length n from the arena. Contents are
// unspecified; callers overwrite every element before reading. Release
// with PutBufI8.
func GetBufI8(n int) *[]int8 { return arenaI8.get(n) }

// PutBufI8 returns an int8 buffer to the arena.
func PutBufI8(p *[]int8) { arenaI8.put(p) }

// GetTensor returns a tensor backed by an arena buffer, plus the handle to
// release it. The tensor contents are zeroed. The tensor must not be used
// after PutBuf(handle).
func GetTensor(shape ...int) (*Tensor, *[]float32) {
	t, p := GetTensorDirty(shape...)
	clear(*p)
	return t, p
}

// GetTensorDirty is GetTensor without the zero fill.
func GetTensorDirty(shape ...int) (*Tensor, *[]float32) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	p := GetBufDirty(n)
	return FromSlice(*p, shape...), p
}

// Package tensor provides dense float32 tensors and the numeric kernels
// (matmul, im2col convolution, pooling, interpolation, elementwise algebra)
// that the nn package builds differentiable layers on top of.
//
// Tensors are row-major over a flat []float32 backing slice. The package is
// deliberately small: it implements exactly the operations the GMorph model
// zoo needs, with parallel kernels for the hot paths.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// A zero-dimensional tensor (no shape) holds a single scalar.
func New(shape ...int) *Tensor {
	// Validate the copy, not the argument, so the variadic array stays on
	// the caller's stack.
	s := append([]int(nil), shape...)
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, s))
		}
		n *= d
	}
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	return new(Tensor).Rebind(data, shape...)
}

// Rebind points t at data with the given shape, reusing t's header and
// shape storage, and returns t. Hot paths keep one header per operand and
// rebind it to each arena lease instead of wrapping every lease with
// FromSlice. len(data) must equal the shape's element count.
func (t *Tensor) Rebind(data []float32, shape ...int) *Tensor {
	t.shape = append(t.shape[:0], shape...)
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), t.shape, n))
	}
	t.data = data
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the flat backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the length of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Reshape returns a view sharing data with t under a new shape. One
// dimension may be -1 to be inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer, n := -1, 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / n
		n *= shape[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes element count", t.shape, shape))
	}
	return &Tensor{shape: shape, data: t.data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// String renders a short description (shape plus a few leading values).
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n < len(t.data) {
		b.WriteString(", ...")
	}
	b.WriteString("]")
	return b.String()
}

// --- elementwise algebra -------------------------------------------------

// AddInto computes dst = a + b elementwise. All three must be the same size.
func AddInto(dst, a, b *Tensor) {
	checkSameSize("AddInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
}

// Add returns a + b as a new tensor.
func Add(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	AddInto(out, a, b)
	return out
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AddScaled accumulates t += s * src.
func (t *Tensor) AddScaled(s float32, src *Tensor) {
	checkSameSize("AddScaled", t, src, src)
	for i := range t.data {
		t.data[i] += s * src.data[i]
	}
}

func checkSameSize(op string, ts ...*Tensor) {
	n := len(ts[0].data)
	for _, t := range ts[1:] {
		if len(t.data) != n {
			panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, ts[0].shape, t.shape))
		}
	}
}

// --- reductions ----------------------------------------------------------

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// ArgMaxRow returns, for a 2-D [rows, cols] tensor, the argmax of each row.
func ArgMaxRow(t *Tensor) []int {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRow wants rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best, bi := float32(math.Inf(-1)), 0
		row := t.data[r*cols : (r+1)*cols]
		for c, v := range row {
			if v > best {
				best, bi = v, c
			}
		}
		out[r] = bi
	}
	return out
}

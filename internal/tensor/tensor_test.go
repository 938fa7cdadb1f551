package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewShapeAndSize(t *testing.T) {
	cases := []struct {
		shape []int
		size  int
	}{
		{[]int{}, 1},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4}, 24},
		{[]int{1, 0, 5}, 0},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Size() != c.size {
			t.Errorf("New(%v).Size() = %d, want %d", c.shape, tt.Size(), c.size)
		}
		if tt.Rank() != len(c.shape) {
			t.Errorf("New(%v).Rank() = %d, want %d", c.shape, tt.Rank(), len(c.shape))
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative dim did not panic")
		}
	}()
	New(2, -1)
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with bad length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetOffsets(t *testing.T) {
	tt := New(2, 3, 4)
	tt.Set(7, 1, 2, 3)
	if got := tt.At(1, 2, 3); got != 7 {
		t.Fatalf("At(1,2,3) = %v, want 7", got)
	}
	// Row-major layout: offset = ((1*3)+2)*4+3 = 23.
	if tt.Data()[23] != 7 {
		t.Fatalf("expected flat index 23 to hold 7, data=%v", tt.Data())
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	tt.At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	tt := New(2, 6)
	v := tt.Reshape(3, 4)
	v.Set(5, 0, 1)
	if tt.Data()[1] != 5 {
		t.Fatal("Reshape must share backing data")
	}
	inferred := tt.Reshape(4, -1)
	if inferred.Dim(1) != 3 {
		t.Fatalf("Reshape(4,-1) got dim %d, want 3", inferred.Dim(1))
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	tt := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	tt.Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := a.Clone()
	b.Data()[0] = 9
	if a.Data()[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	sum := Add(a, b)
	for _, v := range sum.Data() {
		if v != 5 {
			t.Fatalf("Add result = %v, want all 5", sum.Data())
		}
	}
	a.Scale(2)
	if a.At(1, 1) != 8 {
		t.Fatalf("Scale: got %v", a.Data())
	}
	a.AddScaled(0.5, b)
	if a.At(0, 0) != 4 {
		t.Fatalf("AddScaled: got %v", a.Data())
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{-1, 2, -3, 4}, 4)
	if got := a.Sum(); got != 2 {
		t.Fatalf("Sum = %v, want 2", got)
	}
}

func TestArgMaxRow(t *testing.T) {
	a := FromSlice([]float32{0.1, 0.9, 0.5, 3, 2, 1}, 2, 3)
	got := ArgMaxRow(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRow = %v, want [1 0]", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched shapes did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// Transposed matmul variants must agree with explicit transposition.
func TestMatMulTransposeVariants(t *testing.T) {
	rng := NewRNG(11)
	a := New(5, 7)
	b := New(5, 4)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)

	// aᵀ @ b via MatMulTransAInto vs Transpose2D + MatMul.
	got := New(7, 4)
	MatMulTransAInto(got, a, b)
	want := MatMul(Transpose2D(a), b)
	for i := range got.Data() {
		if !almostEq(float64(got.Data()[i]), float64(want.Data()[i]), 1e-4) {
			t.Fatalf("MatMulTransAInto mismatch at %d: %v vs %v", i, got.Data()[i], want.Data()[i])
		}
	}

	// a @ bᵀ via MatMulTransBInto: b=[5,4] @ c=[6,4]ᵀ -> [5,6].
	c := New(6, 4)
	rng.FillNormal(c, 0, 1)
	got2 := New(5, 6)
	MatMulTransBInto(got2, b, c)
	want2 := MatMul(b, Transpose2D(c))
	for i := range got2.Data() {
		if !almostEq(float64(got2.Data()[i]), float64(want2.Data()[i]), 1e-4) {
			t.Fatalf("MatMulTransBInto mismatch at %d", i)
		}
	}
}

// Property: matmul distributes over addition: (a+b) @ c == a@c + b@c.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b, c := New(m, k), New(m, k), New(k, n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		rng.FillUniform(c, -1, 1)
		left := MatMul(Add(a, b), c)
		right := Add(MatMul(a, c), MatMul(b, c))
		for i := range left.Data() {
			if !almostEq(float64(left.Data()[i]), float64(right.Data()[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		a := New(m, n)
		rng.FillUniform(a, -2, 2)
		b := Transpose2D(Transpose2D(a))
		for i := range a.Data() {
			if a.Data()[i] != b.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConvOut(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{32, 3, 1, 1, 32},
		{32, 2, 2, 0, 16},
		{7, 3, 2, 1, 4},
		{5, 5, 1, 0, 1},
	}
	for _, c := range cases {
		if got := ConvOut(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOut(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

// The channel-major unfold of a 1x1 kernel with stride 1 is the input
// itself: row c holds channel c's plane.
func TestIm2ColIdentityKernel(t *testing.T) {
	x := New(1, 2, 2, 2)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	cols := Full(-1, 2, 4)
	Im2ColCMInto(cols, x, 1, 1, 1, 0)
	for i, v := range cols.Data() {
		if v != float32(i) {
			t.Fatalf("cols = %v", cols.Data())
		}
	}
}

// Reference convolution computed naively, compared against the channel-major
// unfold + matmul.
func TestIm2ColMatchesNaiveConv(t *testing.T) {
	rng := NewRNG(42)
	n, c, h, w := 2, 3, 6, 5
	oc, kh, kw, stride, pad := 4, 3, 3, 2, 1
	x := New(n, c, h, w)
	wt := New(oc, c, kh, kw)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(wt, 0, 0.5)

	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	want := New(n, oc, oh, ow)
	for ni := 0; ni < n; ni++ {
		for o := 0; o < oc; o++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float64
					for ci := 0; ci < c; ci++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
								if iy < 0 || iy >= h || ix < 0 || ix >= w {
									continue
								}
								s += float64(x.At(ni, ci, iy, ix)) * float64(wt.At(o, ci, ky, kx))
							}
						}
					}
					want.Set(float32(s), ni, o, oy, ox)
				}
			}
		}
	}

	cols := New(c*kh*kw, n*oh*ow)
	Im2ColCMInto(cols, x, kh, kw, stride, pad)
	got := MatMul(wt.Reshape(oc, c*kh*kw), cols) // [oc, n*oh*ow]
	for ni := 0; ni < n; ni++ {
		for o := 0; o < oc; o++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := got.At(o, (ni*oh+oy)*ow+ox)
					wv := want.At(ni, o, oy, ox)
					if !almostEq(float64(g), float64(wv), 1e-3) {
						t.Fatalf("conv mismatch at n=%d o=%d y=%d x=%d: %v vs %v", ni, o, oy, ox, g, wv)
					}
				}
			}
		}
	}
}

// Property: the channel-major fold is the adjoint of the unfold:
// <Im2ColCM(x), y> == <x, Col2ImCM(y)>.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n, c := 1+rng.Intn(2), 1+rng.Intn(3)
		h, w := 3+rng.Intn(4), 3+rng.Intn(4)
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		if h+2*pad < k || w+2*pad < k {
			return true
		}
		x := New(n, c, h, w)
		rng.FillNormal(x, 0, 1)
		oh, ow := ConvOut(h, k, stride, pad), ConvOut(w, k, stride, pad)
		cols := New(c*k*k, n*oh*ow)
		Im2ColCMInto(cols, x, k, k, stride, pad)
		y := New(cols.Shape()...)
		rng.FillNormal(y, 0, 1)

		var lhs float64
		for i := range cols.Data() {
			lhs += float64(cols.Data()[i]) * float64(y.Data()[i])
		}
		back := New(n, c, h, w)
		Col2ImCMInto(back, y, k, k, stride, pad)
		var rhs float64
		for i := range x.Data() {
			rhs += float64(x.Data()[i]) * float64(back.Data()[i])
		}
		return almostEq(lhs, rhs, 1e-2+1e-3*math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, arg := New(1, 1, 2, 2), make([]byte, 4)
	MaxPoolInto(out, x, 2, 2, arg)
	want := []float32{6, 8, 14, 16}
	for i, v := range out.Data() {
		if v != want[i] || arg[i] != 3 { // the window's bottom-right: ky·2+kx = 3
			t.Fatalf("MaxPoolInto out = %v, arg = %v, want %v, all 3", out.Data(), arg, want)
		}
	}
	// Inference (no argmax) and the per-plane form pool to the same values,
	// and the per-plane form records the same window offsets.
	eval, plane, parg := New(1, 1, 2, 2), make([]float32, 4), make([]byte, 4)
	MaxPoolInto(eval, x, 2, 2, nil)
	MaxPoolPlane(plane, x.Data(), 4, 4, 2, 2, parg)
	for i, v := range want {
		if eval.Data()[i] != v || plane[i] != v || parg[i] != arg[i] {
			t.Fatalf("MaxPoolInto(arg=nil) = %v, MaxPoolPlane = %v (arg %v), want %v", eval.Data(), plane, parg, want)
		}
	}
	g := Full(1, 1, 1, 2, 2)
	gi := MaxPoolBackward(g, arg, x.Shape(), 2, 2)
	// The per-plane scatter routes identically.
	gp := make([]float32, 16)
	MaxPoolScatter(gp, g.Data(), parg, 4, 2, 2, 2)
	for i, v := range gi.Data() {
		if gp[i] != v {
			t.Fatalf("MaxPoolScatter = %v, MaxPoolBackward = %v", gp, gi.Data())
		}
	}
	// Gradient lands only on the max positions.
	var nz int
	for i, v := range gi.Data() {
		if v != 0 {
			nz++
			if x.Data()[i] != out.Data()[(nz-1)] && v != 1 {
				t.Fatalf("gradient misrouted at %d", i)
			}
		}
	}
	if nz != 4 {
		t.Fatalf("expected 4 nonzero grads, got %d", nz)
	}
}

// TestMaxPoolArgOverlapping holds the byte argmax to a recomputed one on
// overlapping windows (stride below the kernel) and on ties: each output's
// gradient lands on its window's first maximum, and a position shared by
// several windows sums their gradients in output order, bit for bit.
func TestMaxPoolArgOverlapping(t *testing.T) {
	rng := NewRNG(11)
	for _, geo := range []struct{ h, w, k, stride int }{{7, 9, 3, 1}, {6, 6, 2, 1}, {9, 7, 3, 2}, {8, 8, 2, 2}} {
		x := New(2, 3, geo.h, geo.w)
		for i := range x.data {
			x.data[i] = float32(int(rng.Float32() * 4)) // ties in most windows
		}
		oh, ow := ConvOut(geo.h, geo.k, geo.stride, 0), ConvOut(geo.w, geo.k, geo.stride, 0)
		out, g := New(2, 3, oh, ow), New(2, 3, oh, ow)
		rng.FillNormal(g, 0, 1)
		arg := make([]byte, out.Size())
		MaxPoolInto(out, x, geo.k, geo.stride, arg)
		got := MaxPoolBackward(g, arg, x.Shape(), geo.k, geo.stride)
		want := New(x.Shape()...)
		hw := geo.h * geo.w
		for o := range out.data {
			pl, q := o/(oh*ow), o%(oh*ow)
			_, i := poolWindow(x.data[pl*hw:][:hw], (q/ow*geo.w+q%ow)*geo.stride, geo.w, geo.k)
			want.data[pl*hw+(q/ow*geo.stride+i/geo.k)*geo.w+q%ow*geo.stride+i%geo.k] += g.data[o]
		}
		for i, v := range got.data {
			if math.Float32bits(v) != math.Float32bits(want.data[i]) {
				t.Fatalf("%+v: gradient[%d] = %v, recomputed argmax gives %v", geo, i, v, want.data[i])
			}
		}
	}
}

func TestAvgPoolGlobalRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	x := New(2, 3, 4, 4)
	rng.FillNormal(x, 0, 1)
	out := AvgPoolGlobal(x)
	if out.Dim(0) != 2 || out.Dim(1) != 3 {
		t.Fatalf("AvgPoolGlobal shape = %v", out.Shape())
	}
	var s float64
	for _, v := range x.Data()[:16] {
		s += float64(v)
	}
	if !almostEq(float64(out.At(0, 0)), s/16, 1e-4) {
		t.Fatalf("AvgPoolGlobal value mismatch: %v vs %v", out.At(0, 0), s/16)
	}
	g := Full(1, 2, 3)
	gi := AvgPoolGlobalBackward(g, 4, 4)
	if !almostEq(float64(gi.At(0, 0, 0, 0)), 1.0/16, 1e-6) {
		t.Fatalf("AvgPoolGlobalBackward value = %v", gi.At(0, 0, 0, 0))
	}
}

func TestInterpolateIdentity(t *testing.T) {
	rng := NewRNG(3)
	x := New(1, 2, 5, 5)
	rng.FillNormal(x, 0, 1)
	y := Interpolate(x, 5, 5)
	for i := range x.Data() {
		if x.Data()[i] != y.Data()[i] {
			t.Fatal("identity interpolation must copy input")
		}
	}
}

func TestInterpolatePreservesConstant(t *testing.T) {
	x := Full(3.5, 1, 1, 4, 4)
	y := Interpolate(x, 7, 3)
	for _, v := range y.Data() {
		if !almostEq(float64(v), 3.5, 1e-5) {
			t.Fatalf("constant field not preserved: %v", v)
		}
	}
}

// Property: interpolation backward is the adjoint of forward.
func TestInterpolateAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		h, w := 2+rng.Intn(5), 2+rng.Intn(5)
		oh, ow := 2+rng.Intn(5), 2+rng.Intn(5)
		x := New(1, 2, h, w)
		rng.FillNormal(x, 0, 1)
		y := Interpolate(x, oh, ow)
		g := New(1, 2, oh, ow)
		rng.FillNormal(g, 0, 1)
		var lhs float64
		for i := range y.Data() {
			lhs += float64(y.Data()[i]) * float64(g.Data()[i])
		}
		back := InterpolateBackward(g, h, w)
		var rhs float64
		for i := range x.Data() {
			rhs += float64(x.Data()[i]) * float64(back.Data()[i])
		}
		return almostEq(lhs, rhs, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(12345)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean too far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance too far from 1: %v", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	rng := NewRNG(5)
	p := rng.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

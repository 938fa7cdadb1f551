package tensor

import "fmt"

// This file retains straightforward, single-threaded reference
// implementations of the hot-path kernels. They are the ground truth for
// the parity and fuzz tests in kernels_parity_test.go: every optimized
// kernel (blocked GEMM, im2col convolution) must agree with its naive
// counterpart to within 1e-4 across arbitrary shapes. They are not used on
// any hot path.

// NaiveMatMulInto computes dst = a @ b with the textbook triple loop.
func NaiveMatMulInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: NaiveMatMulInto wants rank-2 operands, got %v @ %v -> %v", a.shape, b.shape, dst.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: NaiveMatMulInto shape mismatch %v @ %v -> %v", a.shape, b.shape, dst.shape))
	}
	ad, bd, dd := a.data, b.data, dst.data
	for i := 0; i < m; i++ {
		drow := dd[i*n : (i+1)*n]
		for x := range drow {
			drow[x] = 0
		}
		arow := ad[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// NaiveMatMulTransAInto computes dst = aᵀ @ b where a is [k,m].
func NaiveMatMulTransAInto(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: NaiveMatMulTransAInto shape mismatch %vᵀ @ %v -> %v", a.shape, b.shape, dst.shape))
	}
	ad, bd, dd := a.data, b.data, dst.data
	for i := 0; i < m; i++ {
		drow := dd[i*n : (i+1)*n]
		for x := range drow {
			drow[x] = 0
		}
		for p := 0; p < k; p++ {
			av := ad[p*m+i]
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// NaiveMatMulTransBInto computes dst = a @ bᵀ where b is [n,k].
func NaiveMatMulTransBInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: NaiveMatMulTransBInto shape mismatch %v @ %vᵀ -> %v", a.shape, b.shape, dst.shape))
	}
	ad, bd, dd := a.data, b.data, dst.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		drow := dd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			drow[j] = s
		}
	}
}

// NaiveIm2ColCM unfolds x [N,C,H,W] into new channel-major columns
// [C*KH*KW, N*OH*OW] one element at a time, reading zero for padding.
func NaiveIm2ColCM(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	cols := New(c*kh*kw, n*oh*ow)
	for r := 0; r < c*kh*kw; r++ {
		ci, ky, kx := r/(kh*kw), r/kw%kh, r%kw
		for ni := 0; ni < n; ni++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
					if iy < 0 || iy >= h || ix < 0 || ix >= w {
						continue
					}
					cols.data[r*n*oh*ow+(ni*oh+oy)*ow+ox] = x.data[((ni*c+ci)*h+iy)*w+ix]
				}
			}
		}
	}
	return cols
}

// NaiveCol2ImCM folds channel-major columns [C*KH*KW, N*OH*OW] back into a
// new [N,C,H,W] tensor by scattering every in-range entry onto its input
// pixel.
func NaiveCol2ImCM(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	m := n * oh * ow
	if cols.Rank() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != m {
		panic(fmt.Sprintf("tensor: NaiveCol2ImCM shape mismatch cols=%v for out [%d,%d,%d,%d]", cols.shape, n, c, h, w))
	}
	out := New(n, c, h, w)
	for r := 0; r < c*kh*kw; r++ {
		ci, ky, kx := r/(kh*kw), r/kw%kh, r%kw
		for col := 0; col < m; col++ {
			ni, oy, ox := col/(oh*ow), col/ow%oh, col%ow
			iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
			if iy < 0 || iy >= h || ix < 0 || ix >= w {
				continue
			}
			out.data[((ni*c+ci)*h+iy)*w+ix] += cols.data[r*m+col]
		}
	}
	return out
}

// NaiveConv2d runs a direct (seven-loop, no im2col) 2-D convolution over
// x [N,C,H,W] with weight [outC, C*KH*KW] (the layout nn.Conv2d uses) and
// an optional bias of length outC. It returns [N,outC,OH,OW].
func NaiveConv2d(x, weight *Tensor, bias []float32, kh, kw, stride, pad int) *Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: NaiveConv2d wants NCHW input, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if weight.Rank() != 2 || weight.shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: NaiveConv2d weight %v incompatible with input %v and kernel %dx%d", weight.shape, x.shape, kh, kw))
	}
	outC := weight.shape[0]
	if bias != nil && len(bias) != outC {
		panic(fmt.Sprintf("tensor: NaiveConv2d bias length %d, want %d", len(bias), outC))
	}
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	out := New(n, outC, oh, ow)
	xd, wd, od := x.data, weight.data, out.data
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < outC; oc++ {
			wrow := wd[oc*c*kh*kw : (oc+1)*c*kh*kw]
			var b float32
			if bias != nil {
				b = bias[oc]
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := b
					for ci := 0; ci < c; ci++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= w {
									continue
								}
								s += xd[((ni*c+ci)*h+iy)*w+ix] * wrow[(ci*kh+ky)*kw+kx]
							}
						}
					}
					od[((ni*outC+oc)*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

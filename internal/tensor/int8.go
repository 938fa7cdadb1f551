package tensor

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Post-training-quantization kernels: symmetric int8 with zero-point 0.
// Activations are quantized per tensor (q = clamp(round(x/s), -127, 127)),
// weights per output channel, and the int8 x int8 GEMM accumulates exactly
// in int32 with a fused requantize-to-float32 store, so quantized ops read
// and write the same float32 registers as every other plan op.
//
// The GEMM is one signed-int8 kernel in dot-product form: both operands are
// rows of K int8 values stored at stride PadK(K) with zero tails, and
//
//	C[i,j] = float32(Σ_p A[i,p]·B[j,p]) · scales[i] (+ bias[i])
//
// is stored at c[i·rs + j·cs], so one kernel writes a convolution's
// channel-major [OutC, N·OH·OW] rows (rs = N·OH·OW, cs = 1) and a linear
// layer's row-major [rows, Out] output (rs = 1, cs = Out). The plan passes
// the per-channel weight as A and the activations as B: work splits over the
// weight's output channels and the activation columns, not over the few
// pixels of a deep layer. The inner kernel is a 4x2 register block of exact
// int32 dot products (qdot4x2, bound in vec.go: AVX512-VNNI or AVX2
// assembly, or its pure-Go twin). Everything up to the final float32
// multiply is integer and order-independent, so every variant agrees
// bit-exactly with NaiveQGEMMTransBInto — asserted by TestQGEMMParity and
// FuzzQuantizedGEMMParity on each one — and results are identical across
// worker counts.
const (
	// QuantClip is the symmetric int8 clipping bound. The range is
	// [-127, 127] (not -128) so negation stays in range.
	QuantClip = 127
	// QGEMMBlock is the kernel's k step: quantized rows, weights and
	// activations alike, are stored at a multiple of it.
	QGEMMBlock = 32
	// qgemmMaxK bounds the padded depth so the int32 accumulators (at most
	// KP * 127 * 127 in magnitude) cannot overflow.
	qgemmMaxK = 32768
	// qgemmTileCols is the number of activation columns one parallel GEMM
	// task sweeps for its four weight rows.
	qgemmTileCols = 64
)

// PadK rounds a GEMM depth up to the QGEMMBlock stride quantized rows are
// stored at.
func PadK(k int) int {
	return (k + QGEMMBlock - 1) / QGEMMBlock * QGEMMBlock
}

// QuantDepthOK reports whether a GEMM depth fits the int8 kernel's int32
// accumulation bound; deeper layers must stay float32.
func QuantDepthOK(k int) bool { return k > 0 && PadK(k) <= qgemmMaxK }

// QuantScale returns the symmetric quantization scale for a tensor whose
// values span [-absMax, absMax]: one int8 step in real units. A zero or
// negative absMax yields scale 1 (everything quantizes to 0).
func QuantScale(absMax float32) float32 {
	if absMax <= 0 {
		return 1
	}
	return absMax / QuantClip
}

// quantizeOne maps one float32 value onto the symmetric int8 grid with
// round-half-away-from-zero and saturation. The ±0.5 rounding term takes
// r's sign bit instead of branching on it, so activations of mixed sign
// cost no misprediction each; the clamps are branches a network's values
// predict. The float clamp keeps the conversion in int32 range, and a NaN,
// which passes it, converts to the integer minimum and saturates to -127.
func quantizeOne(v, invScale float32) int8 {
	r := v * invScale
	if r > QuantClip {
		r = QuantClip
	} else if r < -QuantClip {
		r = -QuantClip
	}
	q := int32(r + math.Float32frombits(0x3f000000|math.Float32bits(r)&(1<<31))) // r ± 0.5
	if q < -QuantClip {
		q = -QuantClip
	}
	return int8(q)
}

// quantJob carries QuantizeI8Into's and QuantizeRowsI8Into's parallel-body
// state through the pool.
type quantJob struct {
	src               []float32
	dst               []int8
	k, kp             int // rows: row length and stride
	c, hw, tiles      int // channels-last: channels, pixels, pixel tiles per image
	inv               float32
	rowsBody, hwcBody func(lo, hi int)
}

var quantJobs = sync.Pool{New: func() any {
	jb := &quantJob{}
	jb.rowsBody, jb.hwcBody = jb.runRows, jb.runHWC
	return jb
}}

func getQuantJob(dst []int8, src []float32, scale float32) *quantJob {
	if scale == 0 {
		scale = 1
	}
	jb := quantJobs.Get().(*quantJob)
	jb.src, jb.dst, jb.inv = src, dst, 1/scale
	return jb
}

func putQuantJob(jb *quantJob) {
	jb.src, jb.dst = nil, nil
	quantJobs.Put(jb)
}

// runRows quantizes rows [lo, hi) of k values into rows of kp with zero
// tails.
func (jb *quantJob) runRows(lo, hi int) {
	src, dst, k, kp, inv := jb.src, jb.dst, jb.k, jb.kp, jb.inv
	for i := lo; i < hi; i++ {
		drow := dst[i*kp : (i+1)*kp]
		for j, v := range src[i*k : (i+1)*k] {
			drow[j] = quantizeOne(v, inv)
		}
		clear(drow[k:])
	}
}

// quantTile is the pixel run one channels-last quantize task transposes:
// its c·quantTile destination bytes stay in L1 while each channel's run of
// source floats is read contiguously.
const quantTile = 64

// runHWC quantizes pixel tiles [lo, hi), tile t covering pixels
// [quantTile·(t%tiles), +quantTile) of image t/tiles, into channels-last
// order.
func (jb *quantJob) runHWC(lo, hi int) {
	src, dst, c, hw, inv := jb.src, jb.dst, jb.c, jb.hw, jb.inv
	for t := lo; t < hi; t++ {
		ni, p0 := t/jb.tiles, t%jb.tiles*quantTile
		p1 := min(p0+quantTile, hw)
		img, out := src[ni*c*hw:][:c*hw], dst[ni*hw*c:][:hw*c]
		for ci := 0; ci < c; ci++ {
			for p, v := range img[ci*hw+p0 : ci*hw+p1] {
				out[(p0+p)*c+ci] = quantizeOne(v, inv)
			}
		}
	}
}

// QuantizeI8Into quantizes an NCHW float32 tensor — flat src of logical
// shape [n, c, hw] — onto the symmetric int8 grid with step scale and
// stores it channels-last, the layout Im2ColI8Into unfolds:
//
//	dst[(ni·hw + p)·c + ci] = clamp(round(src[(ni·c + ci)·hw + p] / scale), -127, 127)
//
// With c = 1 the layout is unchanged. len(dst) must equal len(src).
func QuantizeI8Into(dst []int8, src []float32, n, c, hw int, scale float32) {
	if len(dst) != len(src) || len(src) != n*c*hw {
		panic(fmt.Sprintf("tensor: QuantizeI8Into dst %d src %d for [%d,%d,%d]", len(dst), len(src), n, c, hw))
	}
	jb := getQuantJob(dst, src, scale)
	jb.c, jb.hw, jb.tiles = c, hw, (hw+quantTile-1)/quantTile
	ParallelFor(n*jb.tiles, c*quantTile, jb.hwcBody)
	putQuantJob(jb)
}

// QuantizeRowsI8Into quantizes a [rows, k] row-major float32 matrix into
// int8 rows stored at stride kp (= PadK(k)) with zero tails: the B operand
// layout QGEMMInto consumes for linear layers. dst must have length
// rows*kp.
func QuantizeRowsI8Into(dst []int8, src []float32, rows, k, kp int, scale float32) {
	if len(src) != rows*k || len(dst) != rows*kp || kp < k {
		panic(fmt.Sprintf("tensor: QuantizeRowsI8Into src %d dst %d for [%d,%d] kp=%d", len(src), len(dst), rows, k, kp))
	}
	jb := getQuantJob(dst, src, scale)
	jb.k, jb.kp = k, kp
	ParallelFor(rows, kp, jb.rowsBody)
	putQuantJob(jb)
}

// QuantizeChannelsI8 quantizes a [rows, k] row-major float32 weight matrix
// symmetrically per row (per output channel), returning the int8 payload
// and one scale per row.
func QuantizeChannelsI8(w []float32, rows, k int) (q []int8, scales []float32) {
	if len(w) != rows*k {
		panic(fmt.Sprintf("tensor: QuantizeChannelsI8 got %d values for [%d,%d]", len(w), rows, k))
	}
	q = make([]int8, rows*k)
	scales = make([]float32, rows)
	for r := 0; r < rows; r++ {
		row := w[r*k : (r+1)*k]
		var m float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		s := QuantScale(m)
		scales[r] = s
		inv := 1 / s
		qrow := q[r*k : (r+1)*k]
		for i, v := range row {
			qrow[i] = quantizeOne(v, inv)
		}
	}
	return q, scales
}

// PackWeightsI8 lays a [rows, k] int8 weight matrix out as QGEMMInto's A
// operand: rows at stride PadK(k) with zero tails. A convolution's row is
// (channel, tap) ordered, taps = kh·kw kernel positions per channel; it is
// reordered tap-major, (tap, channel), to match Im2ColI8Into's columns. The
// dot products are exact integer sums, so the order changes no bit. With
// one tap and k a multiple of QGEMMBlock this is q itself; otherwise it is
// one copy at a byte per weight.
func PackWeightsI8(q []int8, rows, k, taps int) []int8 {
	if len(q) != rows*k || taps < 1 || k%taps != 0 {
		panic(fmt.Sprintf("tensor: PackWeightsI8 got %d values for [%d,%d] with %d taps", len(q), rows, k, taps))
	}
	kp := PadK(k)
	if kp > qgemmMaxK {
		panic(fmt.Sprintf("tensor: PackWeightsI8 depth %d exceeds the %d int32-accumulation bound", kp, qgemmMaxK))
	}
	if kp == k && taps == 1 {
		return q
	}
	c := k / taps
	out := make([]int8, rows*kp)
	for r := 0; r < rows; r++ {
		src, dst := q[r*k:][:k], out[r*kp:][:k]
		for ci := 0; ci < c; ci++ {
			for t := 0; t < taps; t++ {
				dst[t*c+ci] = src[ci*taps+t]
			}
		}
	}
	return out
}

// qgemmJob carries QGEMMInto's parallel-body state through the pool. Task t
// covers weight rows [4·(t/tiles), +4) against activation columns
// [qgemmTileCols·(t%tiles), +qgemmTileCols): consecutive tasks share their
// four A rows, which stay L1-resident while the B columns stream past.
type qgemmJob struct {
	c            []float32
	rs, cs       int
	a, b         []int8
	m, n, kp     int
	tiles        int // column tiles per row block
	scales, bias []float32
	body         func(lo, hi int)
}

var qgemmJobs = sync.Pool{New: func() any {
	jb := &qgemmJob{}
	jb.body = jb.run
	return jb
}}

func (jb *qgemmJob) run(lo, hi int) {
	for t := lo; t < hi; t++ {
		m0, n0 := t/jb.tiles*4, t%jb.tiles*qgemmTileCols
		n1 := min(n0+qgemmTileCols, jb.n)
		if jb.m < 4 {
			// Fewer than four rows in all: one call per row, lda 0 making
			// the block's four rows that one row.
			for i := 0; i < jb.m; i++ {
				jb.block(i, 0, i, i+1, n0, n1)
			}
			continue
		}
		// A ragged last block recomputes rows of the one before it and
		// stores only its own.
		jb.block(min(m0, jb.m-4), jb.kp, m0, min(m0+4, jb.m), n0, n1)
	}
}

// block runs the 4x2 kernel over columns [n0, n1) for the four A rows
// starting at ma, lda bytes apart, and stores rows [mlo, mhi). A ragged last
// column pair is computed one column early and stores only its new column;
// with one column in all, ldb 0 makes both block columns that column.
func (jb *qgemmJob) block(ma, lda, mlo, mhi, n0, n1 int) {
	kp, rs, cs, c := jb.kp, jb.rs, jb.cs, jb.c
	a, scales, bias := &jb.a[ma*kp], jb.scales[mlo:mhi], jb.bias
	if bias != nil {
		bias = bias[mlo:mhi]
	}
	for j := n0; j < n1; j += 2 {
		jb0, ldb := j, kp
		if j+2 > n1 {
			if jb.n == 1 {
				ldb = 0
			} else {
				jb0 = n1 - 2
			}
		}
		acc := qdot4x2(kp, a, lda, &jb.b[jb0*kp], ldb)
		for r, s := range scales {
			i := mlo + r
			for jj := j; jj < min(jb0+2, n1); jj++ {
				v := float32(acc[(i-ma)*2+jj-jb0]) * s
				if bias != nil {
					v += bias[r]
				}
				c[i*rs+jj*cs] = v
			}
		}
	}
}

// QGEMMInto computes the quantized GEMM in dot-product form:
//
//	c[i·rs + j·cs] = float32(Σ_p a[i·kp+p]·b[j·kp+p]) · scales[i] (+ bias[i])
//
// for i < m, j < n. a holds m signed int8 rows and b n rows, both at stride
// kp (a multiple of QGEMMBlock, tails zero); scales folds the activation
// scale with the per-row weight scale; bias may be nil. Accumulation is
// exact in int32, so the output is bit-identical to NaiveQGEMMTransBInto
// with the operands swapped and the store transposed.
func QGEMMInto(c []float32, rs, cs int, a []int8, m int, b []int8, n, kp int, scales, bias []float32) {
	if m <= 0 || n <= 0 || kp <= 0 || kp%QGEMMBlock != 0 || kp > qgemmMaxK ||
		len(a) < m*kp || len(b) < n*kp || len(scales) != m || (bias != nil && len(bias) != m) ||
		len(c) <= (m-1)*rs+(n-1)*cs {
		panic(fmt.Sprintf("tensor: QGEMMInto c=%d rs=%d cs=%d a=%d b=%d scales=%d bias=%d for m=%d n=%d kp=%d",
			len(c), rs, cs, len(a), len(b), len(scales), len(bias), m, n, kp))
	}
	jb := qgemmJobs.Get().(*qgemmJob)
	jb.c, jb.rs, jb.cs, jb.a, jb.b = c, rs, cs, a, b
	jb.m, jb.n, jb.kp, jb.scales, jb.bias = m, n, kp, scales, bias
	jb.tiles = (n + qgemmTileCols - 1) / qgemmTileCols
	ParallelFor((m+3)/4*jb.tiles, 4*qgemmTileCols*kp, jb.body)
	jb.c, jb.a, jb.b, jb.scales, jb.bias = nil, nil, nil, nil, nil
	qgemmJobs.Put(jb)
}

// goQDot4x2 is the portable twin of the AVX2 int8 kernel: the same 4x2
// block of exact int32 dot products, c[2i+j] = Σ_{p<k} a[i·lda+p]·b[j·ldb+p].
// One 64-bit multiply forms two of them: x = b0 + b1·2³² packs the two
// column bytes, so a·x = a·b0 + a·b1·2³². Each half of the sum stays below
// 2³¹ in magnitude (qgemmMaxK·127² < 2³⁰), so the low 32 bits read as a
// signed value are Σ a·b0 exactly, and removing them leaves Σ a·b1 in the
// high half.
func goQDot4x2(k int, a *int8, lda int, b *int8, ldb int) [8]int32 {
	as := unsafe.Slice(a, 3*lda+k)
	bs := unsafe.Slice(b, ldb+k)
	a0, a1, a2, a3 := as[:k], as[lda:][:k], as[2*lda:][:k], as[3*lda:][:k]
	b0, b1 := bs[:k], bs[ldb:][:k]
	var s0, s1, s2, s3 int64
	for p, v := range b0 {
		x := int64(v) + int64(b1[p])<<32
		s0 += int64(a0[p]) * x
		s1 += int64(a1[p]) * x
		s2 += int64(a2[p]) * x
		s3 += int64(a3[p]) * x
	}
	var c [8]int32
	for i, v := range [4]int64{s0, s1, s2, s3} {
		lo := int32(v)
		c[2*i], c[2*i+1] = lo, int32((v-int64(lo))>>32)
	}
	return c
}

// im2colI8Job carries Im2ColI8Into's parallel-body state through the pool.
type im2colI8Job struct {
	xd, cd                                   []int8
	c, h, w, oh, ow, kh, kw, stride, pad, kp int
	body                                     func(lo, hi int)
}

var im2colI8Jobs = sync.Pool{New: func() any {
	jb := &im2colI8Job{}
	jb.body = jb.run
	return jb
}}

// run fills the columns of output rows [lo, hi), item ni·OH + oy. For one
// pixel and one kernel row, the in-range taps read consecutive input pixels
// whatever the stride, so each is one copy of channels-last bytes between
// zeroed borders.
func (jb *im2colI8Job) run(lo, hi int) {
	xd, cd := jb.xd, jb.cd
	c, h, w, oh, ow := jb.c, jb.h, jb.w, jb.oh, jb.ow
	kh, kw, stride, pad, kp := jb.kh, jb.kw, jb.stride, jb.pad, jb.kp
	rowLen := kw * c
	for noy := lo; noy < hi; noy++ {
		ni, oy := noy/oh, noy%oh
		img := xd[ni*h*w*c:][:h*w*c]
		for ox := 0; ox < ow; ox++ {
			dst := cd[(noy*ow+ox)*kp:][:kp]
			x0 := ox*stride - pad
			kx0, kx1 := max(0, -x0), min(kw, w-x0)
			for ky := 0; ky < kh; ky++ {
				seg := dst[ky*rowLen:][:rowLen]
				iy := oy*stride + ky - pad
				if iy < 0 || iy >= h || kx0 >= kx1 {
					clear(seg)
					continue
				}
				clear(seg[:kx0*c])
				copy(seg[kx0*c:kx1*c], img[(iy*w+x0+kx0)*c:])
				clear(seg[kx1*c:])
			}
			clear(dst[kh*rowLen:])
		}
	}
}

// Im2ColI8Into unfolds a quantized channels-last input (flat int8 of
// logical shape [n, h, w, c], as QuantizeI8Into stores it) pixel-major into
// columns [n·oh·ow, kh·kw·c] at row stride kp = PadK(c·kh·kw): each output
// pixel's receptive field is one K-contiguous row, ordered (ky, kx, ci), the
// B operand of QGEMMInto against PackWeightsI8's tap-major weights. Spatial
// padding and the row tail are zero, which is exact under symmetric
// quantization.
func Im2ColI8Into(cols, x []int8, n, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	kp := PadK(c * kh * kw)
	if len(x) != n*c*h*w || len(cols) != n*oh*ow*kp {
		panic(fmt.Sprintf("tensor: Im2ColI8Into x len %d cols len %d for [%d,%d,%d,%d] k=%dx%d kp=%d", len(x), len(cols), n, c, h, w, kh, kw, kp))
	}
	jb := im2colI8Jobs.Get().(*im2colI8Job)
	jb.xd, jb.cd = x, cols
	jb.c, jb.h, jb.w, jb.oh, jb.ow = c, h, w, oh, ow
	jb.kh, jb.kw, jb.stride, jb.pad, jb.kp = kh, kw, stride, pad, kp
	ParallelFor(n*oh, ow*kp, jb.body)
	jb.xd, jb.cd = nil, nil
	im2colI8Jobs.Put(jb)
}

// NaiveQGEMMTransBInto is the reference quantized GEMM: signed int8
// operands (a [m,k], b [n,k] row-major), textbook loops, exact int32
// accumulation, a per-column scale, then bias. QGEMMInto must
// match it bit-exactly — integer accumulation is order-independent and the
// store performs the identical float operations per element.
func NaiveQGEMMTransBInto(dst *Tensor, a, b []int8, m, k, n int, scales, bias []float32) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: NaiveQGEMMTransBInto dst %v, want [%d %d]", dst.shape, m, n))
	}
	dd := dst.data
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for p := 0; p < k; p++ {
				s += int32(a[i*k+p]) * int32(b[j*k+p])
			}
			v := float32(s) * scales[j]
			if bias != nil {
				v += bias[j]
			}
			dd[i*n+j] = v
		}
	}
}

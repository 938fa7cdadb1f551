package tensor

import (
	"fmt"
	"math"
)

// Attention kernels. FlashAttendHead is the flash-style tiled
// softmax(Q·Kᵀ)·V for one attention head (FlashAttention's tiling): it
// streams over key/value tiles with a running row maximum and running
// normalizer, rescaling the output accumulator online, so the full TxT
// score matrix is never materialized. Both of its products run on the GEMM
// driver's register-blocked microkernels through the driver's own serial
// tile loop (gemmEngine.sweep): the head's K band is packed once,
// transposed, and its V band once, into NR-wide strips in the caller's
// workspace, then per query tile × key tile S = Q·Kᵀ reads Q in place at
// its row stride, the softmax update runs over S's rows on the exp row
// kernel (expRow, float32, vectorized like GELU), and O += P·V accumulates
// straight into the context rows. NaiveAttendHead is its reference twin
// (full score matrix, textbook two-pass softmax in float64 exp);
// attention_test.go and FuzzTiledSoftmaxParity hold the two within 1e-4
// across arbitrary sequence lengths, head dims, and tile sizes.
//
// AttendHeadBackward is the training backward of the same head; it
// recomputes each query tile's probabilities through the same S product
// rather than keeping a [T, T] matrix from the forward, and runs
// dP = dO·Vᵀ, dV += Pᵀ·dO, dQ = dS·K and dK += dSᵀ·Q on the same kernels.
//
// The kernels read Q, K, V rows through a common row stride, so a head
// addresses its hd-wide column band inside a packed [T, 3*D] QKV projection
// (stride 3*D) without any copying. FlashAttendUnits and
// AttendBackwardUnits drive them over the (sample, head) units of a whole
// packed projection; nn.MultiHeadAttention and the plan's attn op both run
// through them. A unit is the only parallel grain: each runs its products
// serially on the calling goroutine, so its bits do not depend on the
// worker count or on the strides its bands sit at.

// Attention tiles: attnBQ query rows stream over attnBK-wide key blocks.
const attnBQ, attnBK = 32, 64

// attnGemm is the blocking the attention kernels pack under and run their
// products with: the driver's 4x16 register block and its panels (the rule
// gemmBlocking gives every product that is not both narrow and deep).
var attnGemm = gemmParams{kc: gemmPanel, nc: gemmPanel, mr: 4, nr: 16}

// AttendTiles returns the query and key tile sizes FlashAttendHead runs
// with over t tokens: 32 query rows by 64 keys, each clamped to t. nn's
// MultiHeadAttention and the plan's attn op both read it, so the two run
// the same tiles and round alike.
func AttendTiles(t int) (bq, bk int) {
	return min(attnBQ, t), min(attnBK, t)
}

// roundUp returns x rounded up to a multiple of m.
func roundUp(x, m int) int { return (x + m - 1) / m * m }

// flashLayout returns, for t tokens, head width hd and key tile bk
// (already clamped to t), the number of key tiles and the strip floats one
// key tile's packed K (transposed: keys as columns, hd rows) and packed V
// (hd as columns, the tile's keys as rows) take.
func flashLayout(t, hd, bk int) (tiles, kLen, vLen int) {
	nr := attnGemm.nr
	return (t + bk - 1) / bk, roundUp(bk, nr) * hd, bk * roundUp(hd, nr)
}

// AttendWorkspace returns the float32 workspace length FlashAttendHead
// needs over t tokens at head width hd with query tile bq and key tile bk:
// the K and V strips of every key tile, the score tile, and the running
// max, running sum and correction vectors.
func AttendWorkspace(t, hd, bq, bk int) int {
	bq, bk = min(bq, t), min(bk, t)
	tiles, kLen, vLen := flashLayout(t, hd, bk)
	return tiles*(kLen+vLen) + bq*bk + 3*bq
}

// attnEngine leases a GEMM engine bound to attnGemm; putEngine returns it.
func attnEngine() *gemmEngine {
	e := gemmEngines.Get().(*gemmEngine)
	e.bind(attnGemm)
	return e
}

func putEngine(e *gemmEngine) {
	e.dd, e.ad, e.bd, e.panel = nil, nil, nil, nil
	gemmEngines.Put(e)
}

// FlashAttendHead computes out = softmax(scale * Q Kᵀ) V for one head over
// t tokens with head dimension hd. Row i of Q is q[i*stride : i*stride+hd]
// (likewise k, v), and row i of the output is out[i*outStride :
// i*outStride+hd]; out rows are overwritten. scale must be positive (the
// row max is taken before scaling). ws must have at least
// AttendWorkspace(t, hd, bq, bk) elements and is clobbered. The kernel is
// single-threaded by design: callers parallelize over (batch, head) units,
// each owning disjoint output columns and its own workspace.
func FlashAttendHead(out []float32, outStride int, q, k, v []float32, stride, t, hd int, scale float32, bq, bk int, ws []float32) {
	if bq <= 0 || bk <= 0 {
		panic(fmt.Sprintf("tensor: FlashAttendHead tiles %dx%d", bq, bk))
	}
	if need := AttendWorkspace(t, hd, bq, bk); len(ws) < need {
		panic(fmt.Sprintf("tensor: FlashAttendHead workspace %d, need %d", len(ws), need))
	}
	e := attnEngine()
	flashAttendHead(e, out, outStride, q, k, v, stride, t, hd, scale, min(bq, t), min(bk, t), ws)
	putEngine(e)
}

// flashAttendHead is FlashAttendHead on a leased engine, tiles clamped.
func flashAttendHead(e *gemmEngine, out []float32, outStride int, q, k, v []float32, stride, t, hd int, scale float32, bq, bk int, ws []float32) {
	nr := e.nr
	tiles, kLen, vLen := flashLayout(t, hd, bk)
	kp, vp := ws[:tiles*kLen], ws[tiles*kLen:][:tiles*vLen]
	rest := ws[tiles*(kLen+vLen):]
	s := rest[:bq*bk]           // score / probability tile, rows bk apart
	m := rest[bq*bk:][:bq]      // running row maxima, scaled
	l := rest[bq*bk+bq:][:bq]   // running normalizers
	c := rest[bq*bk+2*bq:][:bq] // per-row corrections
	for jt := 0; jt < tiles; jt++ {
		j0 := jt * bk
		kn := min(bk, t-j0)
		packStripsBT(kp[jt*kLen:], k[j0*stride:], stride, hd, 0, kn, nr)
		packStripsB(vp[jt*vLen:], v[j0*stride:], stride, kn, 0, hd, nr)
	}
	for i0 := 0; i0 < t; i0 += bq {
		qn := min(bq, t-i0)
		orows := out[i0*outStride:]
		for jt := 0; jt < tiles; jt++ {
			kn := min(bk, t-jt*bk)
			e.sweep(s, q[i0*stride:], kp[jt*kLen:], qn, kn, hd, stride, bk, false)
			// Online softmax: fold the tile into the running max and sum,
			// rescale the accumulated output rows, and turn S into P. The
			// max commutes with the positive scale, so it is taken raw.
			for r := 0; r < qn; r++ {
				mx := scale * vmax(s[r*bk:][:kn])
				if jt == 0 {
					m[r] = mx
					continue
				}
				mNew := max(m[r], mx)
				c[r] = m[r] - mNew
				m[r] = mNew
			}
			if jt > 0 {
				expRow(c[:qn], c[:qn], 1, 0)
			}
			for r := 0; r < qn; r++ {
				srow := s[r*bk:][:kn]
				sum := expRow(srow, srow, scale, m[r])
				if jt == 0 {
					l[r] = sum
					continue
				}
				l[r] = l[r]*c[r] + sum
				if c[r] != 1 {
					vscale(orows[r*outStride:][:hd], c[r])
				}
			}
			// O = P·V on the first key tile, O += P·V after.
			e.sweep(orows, s, vp[jt*vLen:], qn, hd, kn, bk, outStride, jt > 0)
		}
		for r := 0; r < qn; r++ {
			vscale(orows[r*outStride:][:hd], 1/l[r])
		}
	}
}

// attendUnit returns the offsets of (sample, head) unit u of multi-head
// attention with heads heads over model width d and t tokens: in, the
// unit's first query element in a packed [N, t, 3d] projection (its keys
// and values sit d and 2d further, every row at stride 3d), and out, its
// first element in the [N, t, d] context. It also returns the head width
// and the attention scale 1/√hd.
func attendUnit(u, t, d, heads int) (in, out, hd int, scale float32) {
	hd = d / heads
	ni, h := u/heads, u%heads
	return ni*t*3*d + h*hd, ni*t*d + h*hd, hd, float32(1 / math.Sqrt(float64(hd)))
}

// FlashAttendUnits runs FlashAttendHead, at tiles bq × bk, over the
// (sample, head) units [lo, hi) of multi-head attention with heads heads
// over model width d and t tokens. qkv is the packed projection, t rows of
// 3d floats per sample: queries in columns [0, d), keys in [d, 2d), values
// in [2d, 3d). Unit u = sample·heads + head reads its head's band of each,
// writes that band of the [N, t, d] context ctx, and works in
// ws[u·AttendWorkspace(t, d/heads, bq, bk):]. Units own disjoint outputs
// and workspace, so callers split the units over the worker pool freely.
func FlashAttendUnits(ctx, qkv, ws []float32, t, d, heads, bq, bk, lo, hi int) {
	unit := AttendWorkspace(t, d/heads, bq, bk)
	e := attnEngine()
	for u := lo; u < hi; u++ {
		in, out, hd, scale := attendUnit(u, t, d, heads)
		flashAttendHead(e, ctx[out:], d, qkv[in:], qkv[in+d:], qkv[in+2*d:], 3*d, t, hd, scale, min(bq, t), min(bk, t), ws[u*unit:][:unit])
	}
	putEngine(e)
}

// AttendBackwardUnits is the backward of FlashAttendUnits over units
// [lo, hi): from the context gradient gctx ([N, t, d]) and the forward's
// packed projection qkv, it overwrites each unit's head bands of the
// packed gradient gqkv (laid out like qkv) through AttendHeadBackward,
// working in ws[u·AttendBackwardWorkspace(t, d/heads):].
func AttendBackwardUnits(gqkv, gctx, qkv, ws []float32, t, d, heads, lo, hi int) {
	unit := AttendBackwardWorkspace(t, d/heads)
	e := attnEngine()
	for u := lo; u < hi; u++ {
		in, out, hd, scale := attendUnit(u, t, d, heads)
		attendHeadBackward(e, gqkv[in:], gqkv[in+d:], gqkv[in+2*d:], gctx[out:], d,
			qkv[in:], qkv[in+d:], qkv[in+2*d:], 3*d, t, hd, scale, ws[u*unit:][:unit])
	}
	putEngine(e)
}

// backwardLayout returns, for t tokens and head width hd, the backward's
// query tile and the strip floats its packs take: K and V transposed (keys
// as columns, hd rows) for S and dP, K plain (hd as columns, t rows) for
// dQ, and one query tile of dO or Q (hd as columns, bq rows) for dV and dK.
func backwardLayout(t, hd int) (bq, kvT, kN, xN int) {
	nr := attnGemm.nr
	bq = min(attnBQ, t)
	return bq, roundUp(t, nr) * hd, roundUp(hd, nr) * t, roundUp(hd, nr) * bq
}

// AttendBackwardWorkspace returns the float32 workspace length
// AttendHeadBackward needs over t tokens at head width hd: its strips
// (backwardLayout), a query tile's probability and probability-gradient
// rows over all t keys, and their transpose.
func AttendBackwardWorkspace(t, hd int) int {
	bq, kvT, kN, xN := backwardLayout(t, hd)
	return 2*kvT + kN + xN + 3*bq*t
}

// AttendHeadBackward is the backward of FlashAttendHead for one head. Given
// Q, K, V and the output gradient gout (rows addressed as FlashAttendHead
// addresses them: q, k, v, gq, gk, gv through stride, gout through
// outStride), it overwrites the hd-wide rows of gq, gk and gv with the
// gradients of softmax(scale·QKᵀ)·V. It recomputes the probabilities per
// query tile of up to 32 rows over all t keys instead of reading a stored
// [t, t] matrix: P = softmax(scale·Q·Kᵀ) row by row, dP = dO·Vᵀ, and with
// D the row sums of P∘dP, dS = P∘(dP − D)·scale; then dV += Pᵀ·dO,
// dQ = dS·K and dK += dSᵀ·Q, the query tiles added in order. ws must have
// AttendBackwardWorkspace(t, hd) elements and is clobbered. Like the
// forward it is single-threaded; a caller running (batch, head) units in
// parallel gives each its own column band and workspace, so the result
// does not depend on the schedule.
func AttendHeadBackward(gq, gk, gv, gout []float32, outStride int, q, k, v []float32, stride, t, hd int, scale float32, ws []float32) {
	if need := AttendBackwardWorkspace(t, hd); len(ws) < need {
		panic(fmt.Sprintf("tensor: AttendHeadBackward workspace %d, need %d", len(ws), need))
	}
	e := attnEngine()
	attendHeadBackward(e, gq, gk, gv, gout, outStride, q, k, v, stride, t, hd, scale, ws)
	putEngine(e)
}

// attendHeadBackward is AttendHeadBackward on a leased engine.
func attendHeadBackward(e *gemmEngine, gq, gk, gv, gout []float32, outStride int, q, k, v []float32, stride, t, hd int, scale float32, ws []float32) {
	nr := e.nr
	bq, kvT, kN, xN := backwardLayout(t, hd)
	kT, vT := ws[:kvT], ws[kvT:][:kvT] // K, V transposed
	kS := ws[2*kvT:][:kN]              // K plain
	xS := ws[2*kvT+kN:][:xN]           // a query tile of dO, then of Q
	rest := ws[2*kvT+kN+xN:]
	p, dp, tr := rest[:bq*t], rest[bq*t:][:bq*t], rest[2*bq*t:][:bq*t]
	packStripsBT(kT, k, stride, hd, 0, t, nr)
	packStripsBT(vT, v, stride, hd, 0, t, nr)
	packStripsB(kS, k, stride, t, 0, hd, nr)
	for i0 := 0; i0 < t; i0 += bq {
		qn := min(bq, t-i0)
		qi, gi := q[i0*stride:], gout[i0*outStride:]
		e.sweep(p, qi, kT, qn, t, hd, stride, t, false)
		for r := 0; r < qn; r++ {
			row := p[r*t:][:t]
			vscale(row, 1/expRow(row, row, scale, scale*vmax(row)))
		}
		e.sweep(dp, gi, vT, qn, t, hd, outStride, t, false)
		for r := 0; r < qn; r++ {
			softmaxGradRow(dp[r*t:][:t], p[r*t:][:t], scale)
		}
		accum := i0 > 0
		transposeInto(tr, p, qn, t)
		packStripsB(xS, gi, outStride, qn, 0, hd, nr)
		e.sweep(gv, tr, xS, t, hd, qn, qn, stride, accum)
		e.sweep(gq[i0*stride:], dp, kS, qn, hd, t, t, stride, false)
		transposeInto(tr, dp, qn, t)
		packStripsB(xS, qi, stride, qn, 0, hd, nr)
		e.sweep(gk, tr, xS, t, hd, qn, qn, stride, accum)
	}
}

// softmaxGradRow turns one row of dP into dS in place: with p the row's
// probabilities and D = Σ p·dp, ds = p·(dp − D)·scale.
func softmaxGradRow(dp, p []float32, scale float32) {
	dot := vdot(p, dp)
	p = p[:len(dp)]
	for j, g := range dp {
		dp[j] = p[j] * (g - dot) * scale
	}
}

// NaiveAttendHead is the reference attention for one head: it materializes
// the full [t, t] score matrix, runs a max-subtracted two-pass softmax per
// row, then multiplies by V. It allocates and is single-threaded;
// reference/test use only.
func NaiveAttendHead(out []float32, outStride int, q, k, v []float32, stride, t, hd int, scale float32) {
	scores := make([]float32, t*t)
	for i := 0; i < t; i++ {
		qrow := q[i*stride:][:hd]
		srow := scores[i*t:][:t]
		maxv := float32(math.MaxFloat32) * -1
		for j := 0; j < t; j++ {
			krow := k[j*stride:][:hd]
			var dot float32
			for p, qv := range qrow {
				dot += qv * krow[p]
			}
			dot *= scale
			srow[j] = dot
			if dot > maxv {
				maxv = dot
			}
		}
		var sum float32
		for j := range srow {
			e := float32(math.Exp(float64(srow[j] - maxv)))
			srow[j] = e
			sum += e
		}
		inv := 1 / sum
		orow := out[i*outStride:][:hd]
		for p := range orow {
			orow[p] = 0
		}
		for j := 0; j < t; j++ {
			a := srow[j] * inv
			if a == 0 {
				continue
			}
			vrow := v[j*stride:][:hd]
			for p, vv := range vrow {
				orow[p] += a * vv
			}
		}
	}
}

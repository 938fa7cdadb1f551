package tensor

import (
	"fmt"
	"math"
)

// Attention kernels. FlashAttendHead is the flash-style tiled
// softmax(Q·Kᵀ)·V for one attention head: it streams over key/value tiles
// with a running row maximum and running normalizer, rescaling the output
// accumulator online, so the full TxT score matrix is never materialized —
// the working set is one Bq x Bk score tile plus two Bq-float vectors,
// supplied by the caller. NaiveAttendHead is its reference twin (full score
// matrix, textbook two-pass softmax); attention_test.go and
// FuzzTiledSoftmaxParity hold the two within 1e-4 across arbitrary sequence
// lengths, head dims, and tile sizes.
//
// AttendHeadBackward is the training backward of the same head; it
// recomputes each query row's probabilities rather than keeping a [T, T]
// matrix from the forward.
//
// The kernels read Q, K, V rows through a common row stride, so a head
// addresses its hd-wide column band inside a packed [T, 3*D] QKV projection
// (stride 3*D) without any copying. FlashAttendUnits and
// AttendBackwardUnits drive them over the (sample, head) units of a whole
// packed projection; nn.MultiHeadAttention and the plan's attn op both run
// through them.

// Attention tiles: attnBQ query rows stream over attnBK-wide key blocks.
const attnBQ, attnBK = 32, 64

// AttendTiles returns the query and key tile sizes FlashAttendHead runs
// with over t tokens: 32 query rows by 64 keys, each clamped to t. nn's
// MultiHeadAttention and the plan's attn op both read it, so the two run
// the same tiles and round alike.
func AttendTiles(t int) (bq, bk int) {
	return min(attnBQ, t), min(attnBK, t)
}

// AttendWorkspace returns the float32 workspace length FlashAttendHead
// needs for query tile bq and key tile bk: the score tile plus the running
// max and running sum vectors.
func AttendWorkspace(bq, bk int) int { return bq*bk + 2*bq }

// FlashAttendHead computes out = softmax(scale * Q Kᵀ) V for one head over
// t tokens with head dimension hd. Row i of Q is q[i*stride : i*stride+hd]
// (likewise k, v), and row i of the output is out[i*outStride :
// i*outStride+hd]; out rows are overwritten. ws must have at least
// AttendWorkspace(bq, bk) elements and is clobbered. The kernel is
// single-threaded by design: callers parallelize over (batch, head) units,
// each owning disjoint output columns and its own workspace.
func FlashAttendHead(out []float32, outStride int, q, k, v []float32, stride, t, hd int, scale float32, bq, bk int, ws []float32) {
	if bq <= 0 || bk <= 0 {
		panic(fmt.Sprintf("tensor: FlashAttendHead tiles %dx%d", bq, bk))
	}
	if bq > t {
		bq = t
	}
	if bk > t {
		bk = t
	}
	if len(ws) < AttendWorkspace(bq, bk) {
		panic(fmt.Sprintf("tensor: FlashAttendHead workspace %d, need %d", len(ws), AttendWorkspace(bq, bk)))
	}
	s := ws[:bq*bk]                // score / probability tile
	m := ws[bq*bk : bq*bk+bq]      // running row maxima
	l := ws[bq*bk+bq : bq*bk+2*bq] // running normalizers
	const negInf = float32(math.MaxFloat32) * -1
	for i0 := 0; i0 < t; i0 += bq {
		qn := bq
		if i0+qn > t {
			qn = t - i0
		}
		for r := 0; r < qn; r++ {
			m[r] = negInf
			l[r] = 0
			orow := out[(i0+r)*outStride:][:hd]
			for p := range orow {
				orow[p] = 0
			}
		}
		for j0 := 0; j0 < t; j0 += bk {
			kn := bk
			if j0+kn > t {
				kn = t - j0
			}
			// Score tile: s[r][c] = scale * q_{i0+r} · k_{j0+c}, through the
			// bound dot kernel (vec.go).
			for r := 0; r < qn; r++ {
				qrow := q[(i0+r)*stride:][:hd]
				srow := s[r*bk:][:kn]
				for c := 0; c < kn; c++ {
					krow := k[(j0+c)*stride:][:hd]
					srow[c] = vdot(qrow, krow) * scale
				}
			}
			// Online softmax: fold the tile into the running max/sum and
			// rescale the accumulated output rows.
			for r := 0; r < qn; r++ {
				srow := s[r*bk:][:kn]
				mNew := m[r]
				for _, sv := range srow {
					if sv > mNew {
						mNew = sv
					}
				}
				corr := float32(math.Exp(float64(m[r] - mNew)))
				orow := out[(i0+r)*outStride:][:hd]
				if corr != 1 {
					l[r] *= corr
					vscale(orow, corr)
				}
				m[r] = mNew
				for c := range srow {
					e := float32(math.Exp(float64(srow[c] - mNew)))
					srow[c] = e
					l[r] += e
				}
				// Accumulate the probability-weighted value rows.
				for c := 0; c < kn; c++ {
					a := srow[c]
					if a == 0 {
						continue
					}
					vaxpy(orow, a, v[(j0+c)*stride:][:hd])
				}
			}
		}
		for r := 0; r < qn; r++ {
			vscale(out[(i0+r)*outStride:][:hd], 1/l[r])
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
// ws[u·AttendWorkspace(bq, bk):]. Units own disjoint outputs and
// workspace, so callers split the units over the worker pool freely.
func FlashAttendUnits(ctx, qkv, ws []float32, t, d, heads, bq, bk, lo, hi int) {
	unit := AttendWorkspace(bq, bk)
	for u := lo; u < hi; u++ {
		in, out, hd, scale := attendUnit(u, t, d, heads)
		FlashAttendHead(ctx[out:], d, qkv[in:], qkv[in+d:], qkv[in+2*d:], 3*d, t, hd, scale, bq, bk, ws[u*unit:][:unit])
	}
}

// AttendBackwardUnits is the backward of FlashAttendUnits over units
// [lo, hi): from the context gradient gctx ([N, t, d]) and the forward's
// packed projection qkv, it overwrites each unit's head bands of the
// packed gradient gqkv (laid out like qkv) through AttendHeadBackward,
// working in ws[u·AttendBackwardWorkspace(t):].
func AttendBackwardUnits(gqkv, gctx, qkv, ws []float32, t, d, heads, lo, hi int) {
	unit := AttendBackwardWorkspace(t)
	for u := lo; u < hi; u++ {
		in, out, hd, scale := attendUnit(u, t, d, heads)
		AttendHeadBackward(gqkv[in:], gqkv[in+d:], gqkv[in+2*d:], gctx[out:], d,
			qkv[in:], qkv[in+d:], qkv[in+2*d:], 3*d, t, hd, scale, ws[u*unit:][:unit])
	}
}

// AttendBackwardWorkspace returns the float32 workspace length
// AttendHeadBackward needs over t tokens: one probability row and one
// probability-gradient row.
func AttendBackwardWorkspace(t int) int { return 2 * t }

// AttendHeadBackward is the backward of FlashAttendHead for one head. Given
// Q, K, V and the output gradient gout (rows addressed as FlashAttendHead
// addresses them: q, k, v, gq, gk, gv through stride, gout through
// outStride), it overwrites the hd-wide rows of gq, gk and gv with the
// gradients of softmax(scale·QKᵀ)·V. It recomputes each query row's
// probabilities instead of reading a stored [t, t] matrix: with p the row's
// softmax and dp_j = gout_i·v_j, it adds p_j·gout_i to gv_j and, with
// ds_j = p_j·(dp_j − Σ p·dp)·scale, ds_j·k_j to gq_i and ds_j·q_i to gk_j.
// ws must have AttendBackwardWorkspace(t) elements and is clobbered. Like
// the forward it is single-threaded; a caller running (batch, head) units
// in parallel gives each its own column band and workspace, so the result
// does not depend on the schedule.
func AttendHeadBackward(gq, gk, gv, gout []float32, outStride int, q, k, v []float32, stride, t, hd int, scale float32, ws []float32) {
	if len(ws) < AttendBackwardWorkspace(t) {
		panic(fmt.Sprintf("tensor: AttendHeadBackward workspace %d, need %d", len(ws), AttendBackwardWorkspace(t)))
	}
	p, dp := ws[:t], ws[t:2*t]
	for j := 0; j < t; j++ {
		clear(gk[j*stride:][:hd])
		clear(gv[j*stride:][:hd])
	}
	for i := 0; i < t; i++ {
		qrow := q[i*stride:][:hd]
		maxv := float32(math.MaxFloat32) * -1
		for j := range p {
			s := vdot(qrow, k[j*stride:][:hd]) * scale
			p[j] = s
			maxv = max(maxv, s)
		}
		var sum float32
		for j, s := range p {
			e := float32(math.Exp(float64(s - maxv)))
			p[j] = e
			sum += e
		}
		inv := 1 / sum
		grow := gout[i*outStride:][:hd]
		var dot float32
		for j := range p {
			p[j] *= inv
			dp[j] = vdot(grow, v[j*stride:][:hd])
			dot += p[j] * dp[j]
		}
		gqrow := gq[i*stride:][:hd]
		clear(gqrow)
		for j, a := range p {
			if a == 0 {
				continue
			}
			vaxpy(gv[j*stride:][:hd], a, grow)
			ds := a * (dp[j] - dot) * scale
			vaxpy(gqrow, ds, k[j*stride:][:hd])
			vaxpy(gk[j*stride:][:hd], ds, qrow)
		}
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

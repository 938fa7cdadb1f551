package tensor

// Tunable kernel parameters. Every hot-path kernel that used to bake its
// tile constants into the source (gemmKC/gemmNC panels, the attention bq/bk
// blocks) now accepts a parameter struct, so the autotuner (internal/tune)
// can search the space per layer shape and the plan compiler can stamp
// per-op winners. The zero value of
// each struct is invalid; use the Default* constructors, which reproduce
// the hand-picked constants the previous PRs shipped.

// Microkernel register-blocking shapes. MR is the number of destination
// rows held in accumulator registers across the k loop, NR the number of
// destination columns (NR lanes of 8 float32). The AVX2 path implements
// 4x16 (8 YMM accumulators, the general-purpose shape) and 8x8 (better for
// narrow outputs: classifier heads, small channel counts); the pure-Go
// fallback implements the same shapes over [8]float32 lanes.
const (
	Kernel4x16 = "4x16"
	Kernel8x8  = "8x8"
)

// GemmParams are the blocked-GEMM tile parameters: B is packed and consumed
// in KC x NC panels, and the inner microkernel is the MR x NR register
// block named by Kernel.
type GemmParams struct {
	// KC is the k-extent of a packed B panel (rows of B per panel).
	KC int
	// NC is the n-extent of a packed B panel (columns of B per panel).
	NC int
	// Kernel selects the microkernel register block: Kernel4x16 or
	// Kernel8x8.
	Kernel string
}

// DefaultGemmParams returns the shipped defaults: 256x256 panels (a full
// panel is 256 KiB, sized to stay L2-resident) with the 4x16 microkernel.
func DefaultGemmParams() GemmParams {
	return GemmParams{KC: 256, NC: 256, Kernel: Kernel4x16}
}

// norm clamps the parameters to a usable configuration, mapping unknown or
// zero fields onto the defaults. mr/nr are the resolved register block.
func (g GemmParams) norm() (kc, nc, mr, nr int) {
	kc, nc = g.KC, g.NC
	if kc <= 0 {
		kc = 256
	}
	if nc <= 0 {
		nc = 256
	}
	switch g.Kernel {
	case Kernel8x8:
		mr, nr = 8, 8
	default:
		mr, nr = 4, 16
	}
	if nc < nr {
		nc = nr
	}
	return kc, nc, mr, nr
}

// String renders the parameters for kernel reports.
func (g GemmParams) String() string {
	kc, nc, mr, nr := g.norm()
	return "kc=" + itoa(kc) + " nc=" + itoa(nc) + " kern=" + itoa(mr) + "x" + itoa(nr)
}

// AttnParams are the flash-attention tile sizes: BQ query rows stream over
// BK-wide key blocks (tensor.FlashAttendHead's bq/bk arguments).
type AttnParams struct {
	BQ, BK int
}

// DefaultAttnParams returns the shipped defaults (32 query rows x 64 keys).
func DefaultAttnParams() AttnParams { return AttnParams{BQ: 32, BK: 64} }

// Norm clamps the tiles to the sequence length, mapping zero fields onto
// the defaults.
func (a AttnParams) Norm(t int) (bq, bk int) {
	bq, bk = a.BQ, a.BK
	if bq <= 0 {
		bq = 32
	}
	if bk <= 0 {
		bk = 64
	}
	if bq > t {
		bq = t
	}
	if bk > t {
		bk = t
	}
	return bq, bk
}

// String renders the parameters for kernel reports.
func (a AttnParams) String() string { return "bq=" + itoa(a.BQ) + " bk=" + itoa(a.BK) }

// itoa is a minimal positive-int formatter, avoiding a strconv import in
// this hot-path package for the report strings alone.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

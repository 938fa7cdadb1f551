package plan

import (
	"sync"

	"repro/internal/tensor"
)

// Compile-time kernel tuning hook. Every f32 GEMM-shaped op the compiler
// lowers (channel-major conv GEMM, linear, packed QKV, patch projection) and
// the tiled attention ask the installed KernelTuner for their blocking
// parameters and stamps the answer into the op's spec, so the executor runs
// per-layer-shape winners instead of one global constant set. With no tuner
// installed every op gets the shipped defaults — exactly the pre-tuning
// behaviour — and Compile stays deterministic and measurement-free.

// Tune provenance values stamped on ops (Op.Tune).
const (
	// TuneDefault marks ops running the shipped default parameters.
	TuneDefault = "default"
	// TuneCache marks ops whose parameters came from the persistent winner
	// cache without any measurement this compile.
	TuneCache = "cache"
	// TuneMeasured marks ops whose parameters were measured (tuned) during
	// this compile.
	TuneMeasured = "tuned"
)

// KernelTuner supplies kernel parameters for one layer shape at compile
// time. Implementations return the chosen parameters plus a provenance
// string (TuneDefault, TuneCache, or TuneMeasured). Shapes are per-sample,
// for batch 1; the tuner scales one side to a nominal batch itself if it
// measures. internal/tune provides the measuring, cache-persisting
// implementation; the interface lives here so the plan package does not
// import it (cmds wire the two together via SetTuner).
type KernelTuner interface {
	// Gemm picks f32 blocked-GEMM parameters for dst[m,n] = a[m,k] @ b[k,n].
	// The batch scales the m side (the rows of linear, qkv and patch
	// projections) unless batchN is set: then it scales the n side, the
	// pixel columns of the channel-major conv, whose m is OutC.
	Gemm(m, n, k int, batchN bool) (tensor.GemmParams, string)
	// Attn picks flash-attention tile sizes for sequence length t and head
	// dimension hd.
	Attn(t, hd int) (tensor.AttnParams, string)
}

var (
	tunerMu     sync.Mutex
	activeTuner KernelTuner
)

// SetTuner installs the process-wide kernel tuner consulted by Compile (nil
// uninstalls it, restoring defaults-only lowering). Serving and inspection
// binaries call this once at startup before compiling plans.
func SetTuner(t KernelTuner) {
	tunerMu.Lock()
	activeTuner = t
	tunerMu.Unlock()
}

// tuner returns the installed tuner, or nil.
func tuner() KernelTuner {
	tunerMu.Lock()
	t := activeTuner
	tunerMu.Unlock()
	return t
}

// tuneGemm resolves f32 GEMM parameters for the given per-sample shape.
func tuneGemm(m, n, k int, batchN bool) (tensor.GemmParams, string) {
	if t := tuner(); t != nil {
		return t.Gemm(m, n, k, batchN)
	}
	return tensor.DefaultGemmParams(), TuneDefault
}

// tuneAttn resolves attention tile sizes for sequence length t, head dim hd.
func tuneAttn(t, hd int) (tensor.AttnParams, string) {
	if tu := tuner(); tu != nil {
		return tu.Attn(t, hd)
	}
	return tensor.DefaultAttnParams(), TuneDefault
}

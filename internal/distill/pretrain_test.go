package distill_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/distill"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// pretrainHashAVX2 is the FNV-64a hash of every parameter and batch-norm
// running statistic of testutil.TinyMultiDNN after two epochs of teacher
// pre-training on testutil.TinyFace, on the AVX2 tier. Pre-training
// shuffles, batches and steps exactly as it did when this value was taken;
// a change that alters the pretrained teachers must update it on purpose.
const pretrainHashAVX2 = 0x157e9a1369f391cb

func TestPretrainHashAVX2(t *testing.T) {
	ds := testutil.TinyFace(31, 48, 16)
	g := testutil.TinyMultiDNN(32, ds)
	testutil.PretrainTeachers(g, ds, 2, 0.004, 33)
	h := fnv.New64a()
	for _, p := range g.Params() {
		_ = binary.Write(h, binary.LittleEndian, p.Value.Data()) // a hash.Hash write never fails
	}
	for _, n := range g.Nodes() {
		for _, s := range nn.StateTensors(n.Layer) {
			_ = binary.Write(h, binary.LittleEndian, s.Data())
		}
	}
	t.Logf("tier %s: pretrain hash %#x", tensor.VecKind(), h.Sum64())
	if tensor.VecKind() != "avx2" {
		t.Skipf("golden hash is for the avx2 tier, not %s", tensor.VecKind())
	}
	if h.Sum64() != pretrainHashAVX2 {
		t.Errorf("pretrain hash %#x, want %#x", h.Sum64(), uint64(pretrainHashAVX2))
	}
}

// Pre-training whose loss stops being finite must fail rather than hand
// back a teacher trained on garbage.
func TestPretrainDivergenceFails(t *testing.T) {
	ds := testutil.TinyFace(34, 32, 16)
	g := testutil.TinyMultiDNN(35, ds)
	g.Heads[0].Layer.Params()[0].Value.Data()[0] = float32(math.Inf(1))
	if _, err := distill.Pretrain(g, ds, 2, 0.004, 36); err == nil {
		t.Fatal("a non-finite pre-training loss was not reported")
	}
}

package parser

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Half-precision tensors are only read (Save writes float32), so the decoder
// is checked against bit patterns whose values IEEE 754 fixes.
func TestF16RoundTripExactValues(t *testing.T) {
	for _, c := range []struct {
		h    uint16
		want float32
	}{
		{0x3C00, 1},
		{0xC000, -2},
		{0x0001, 0x1p-24},        // smallest subnormal
		{0x03FF, 1023 * 0x1p-24}, // largest subnormal
		{0x7BFF, 65504},          // largest normal
		{0x8000, float32(math.Copysign(0, -1))},
	} {
		if got := f16tof32(c.h); math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("f16tof32(%#04x) = %v, want %v", c.h, got, c.want)
		}
	}
}

func TestF16SpecialValues(t *testing.T) {
	if got := f16tof32(0x7C00); !math.IsInf(float64(got), 1) {
		t.Errorf("f16tof32(0x7c00) = %v, want +Inf", got)
	}
	if got := f16tof32(0xFC00); !math.IsInf(float64(got), -1) {
		t.Errorf("f16tof32(0xfc00) = %v, want -Inf", got)
	}
	if got := f16tof32(0x7E00); !math.IsNaN(float64(got)) {
		t.Errorf("f16tof32(0x7e00) = %v, want NaN", got)
	}
}

// Property: every finite half-precision pattern decodes exactly to
// ±m·2^(e-25) with its 11-bit significand m (implicit bit included for
// normals), so the decoder adds no error beyond the format's own.
func TestF16RelativeErrorProperty(t *testing.T) {
	f := func(h uint16) bool {
		exp, mant := int(h>>10&0x1F), float64(h&0x3FF)
		if exp == 0x1F {
			return true // Inf and NaN: TestF16SpecialValues
		}
		want := math.Ldexp(mant, -24)
		if exp > 0 {
			want = math.Ldexp(1024+mant, exp-25)
		}
		if h&0x8000 != 0 {
			want = -want
		}
		return f16tof32(h) == float32(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func buildSmallGraph(seed uint64) *graph.Graph {
	rng := tensor.NewRNG(seed)
	g := graph.New(graph.Shape{1, 8, 8}, graph.DomainRaw)
	g.TaskNames[0] = "t"
	b := graph.NewBlockNode(0, 0, "ConvBlock", graph.Shape{1, 8, 8}, graph.DomainRaw,
		nn.NewConvBlock(rng, 1, 4, true, true))
	h := graph.NewBlockNode(0, 1, "Head", graph.Shape{4, 4, 4}, graph.DomainSpatial,
		nn.NewSequential("h", nn.NewGlobalAvgPool(), nn.NewLinear(rng, 4, 2)))
	g.AppendChain(g.Root, b, h)
	return g
}

// testdata/f16.gmck is buildSmallGraph(9) written with half-precision
// parameter tensors by the float16 writer earlier versions had. It must
// still load: smaller than the float32 checkpoint, every parameter within
// half-precision rounding of the float32 graph, and outputs close to it.
func TestFloat16CheckpointSmallerAndClose(t *testing.T) {
	g := buildSmallGraph(9)
	var full bytes.Buffer
	if err := Save(&full, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "f16.gmck"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= full.Len() {
		t.Fatalf("float16 checkpoint not smaller: %d vs %d bytes", len(raw), full.Len())
	}
	g2, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ps, ps2 := g.Params(), g2.Params()
	if len(ps) != len(ps2) {
		t.Fatalf("%d params, want %d", len(ps2), len(ps))
	}
	for i, p := range ps {
		for j, v := range p.Value.Data() {
			got := float64(ps2[i].Value.Data()[j])
			// Round to nearest: relative 2^-11 for normal halves, half the
			// subnormal step 2^-24 below 2^-14.
			tol := math.Max(math.Abs(float64(v))*0x1p-11, 0x1p-25)
			if math.Abs(got-float64(v)) > tol {
				t.Fatalf("param %s[%d] = %v, want %v within %g", p.Name, j, got, v, tol)
			}
		}
	}
	rng := tensor.NewRNG(10)
	x := tensor.New(2, 1, 8, 8)
	rng.FillNormal(x, 0, 1)
	a := g.Forward(x.Clone(), false)[0]
	b := g2.Forward(x.Clone(), false)[0]
	var maxDiff float64
	for i := range a.Data() {
		maxDiff = math.Max(maxDiff, math.Abs(float64(a.Data()[i]-b.Data()[i])))
	}
	if maxDiff > 0.05 {
		t.Fatalf("float16 checkpoint output error too large: %v", maxDiff)
	}
}

// Property: random single-byte corruption anywhere in a checkpoint must
// produce an error, never a panic or a silently-wrong graph.
func TestCorruptionNeverPanicsProperty(t *testing.T) {
	g := buildSmallGraph(11)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f := func(seed uint64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := tensor.NewRNG(seed)
		bad := append([]byte(nil), raw...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= byte(1 + rng.Intn(255))
		_, err := Load(bytes.NewReader(bad))
		// CRC catches all single-byte flips, so Load must error.
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: random truncation must error, never panic.
func TestTruncationNeverPanicsProperty(t *testing.T) {
	g := buildSmallGraph(12)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f := func(seed uint64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := tensor.NewRNG(seed)
		n := rng.Intn(len(raw))
		_, err := Load(bytes.NewReader(raw[:n]))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

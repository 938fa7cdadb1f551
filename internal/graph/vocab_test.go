package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// VocabOf finds the embedding stem's vocabulary through sequential nesting.
func TestVocabOf(t *testing.T) {
	ds := testutil.TinyFace(1, 8, 4)
	img := testutil.TinyMultiDNN(2, ds)
	if v := graph.VocabOf(img); v != 0 {
		t.Fatalf("image model vocab %d, want 0", v)
	}
	// A token-id model with the embedding nested inside a Sequential stem.
	rng := tensor.NewRNG(1)
	text := graph.New(graph.Shape{6}, graph.DomainRaw)
	stem := graph.NewBlockNode(0, 0, "Stem", graph.Shape{6}, graph.DomainRaw,
		nn.NewSequential("stem", nn.NewEmbedding(rng, 20, 8, 6)))
	text.AppendChain(text.Root, stem)
	if v := graph.VocabOf(text); v != 20 {
		t.Fatalf("text model vocab %d, want 20", v)
	}
}

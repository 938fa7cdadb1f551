package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Forward executes the graph on a batched input, computing every shared
// node exactly once, and returns each task's head output keyed by task id.
// train selects training-mode layer behaviour.
func (g *Graph) Forward(x *tensor.Tensor, train bool) map[int]*tensor.Tensor {
	outputs := make(map[int]*tensor.Tensor, len(g.Heads))
	var walk func(n *Node, in *tensor.Tensor)
	walk = func(n *Node, in *tensor.Tensor) {
		out := in
		if n.Layer != nil {
			out = n.Layer.Forward(in, train)
		}
		if n.IsHead() {
			outputs[n.TaskID] = out
			return
		}
		for _, c := range n.Children {
			walk(c, out)
		}
	}
	walk(g.Root, x)
	return outputs
}

// paramBackwarder is a layer that can accumulate its parameter gradients
// without computing the gradient with respect to its input (nn's
// convolution layers). BackwardParams replaces Backward, once per Forward.
type paramBackwarder interface {
	BackwardParams(gradOut *tensor.Tensor)
}

// Backward propagates per-task output gradients through the tree,
// accumulating parameter gradients. Shared nodes receive the sum of their
// children's input gradients, mirroring autograd over the fused model.
//
// The gradient with respect to the graph input is never needed, so the
// layers that read the input (the root's children) run BackwardParams when
// they have it: for a branch's first convolution —
// usually its largest — that skips the input-gradient GEMM and the fold.
//
// Backward must follow a Forward with train semantics; layer caches are
// consumed in reverse order of the Forward traversal.
func (g *Graph) Backward(taskGrads map[int]*tensor.Tensor) {
	// walk returns the gradient at n's input when want is set; otherwise it
	// only accumulates parameter gradients and returns nil.
	var walk func(n *Node, want bool) *tensor.Tensor
	walk = func(n *Node, want bool) *tensor.Tensor {
		var acc *tensor.Tensor
		if n.IsHead() {
			gOut, ok := taskGrads[n.TaskID]
			if !ok {
				panic(fmt.Sprintf("graph: Backward missing gradient for task %d", n.TaskID))
			}
			acc = gOut
		} else {
			if len(n.Children) == 0 {
				panic(fmt.Sprintf("graph: node %s has no children feeding gradients", n.ID()))
			}
			// A layerless node hands its children's gradient straight on.
			childWant := want || n.Layer != nil
			for _, c := range n.Children {
				gIn := walk(c, childWant)
				switch {
				case !childWant:
				case acc == nil:
					acc = gIn
				default:
					tensor.AddInto(acc, acc, gIn)
				}
			}
		}
		if n.Layer == nil {
			return acc
		}
		if !want {
			if pb, ok := n.Layer.(paramBackwarder); ok {
				pb.BackwardParams(acc)
				return nil
			}
		}
		return n.Layer.Backward(acc)
	}
	walk(g.Root, false)
}

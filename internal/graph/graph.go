// Package graph implements the abstract graph (abs-graph) data structure
// from GMorph Section 4.1: a tree-variant DAG whose root is a placeholder
// for the input tensor shared by all DNNs, whose nodes are computation
// blocks annotated with (task_id, op_id, op_type, input_shape, capacity),
// and whose shape dictionary indexes nodes by input feature shape to
// enumerate input-shareable node pairs.
//
// Unlike the paper's prototype, which separates architecture from a weight
// store, nodes here carry their nn.Layer directly; cloning a graph deep
// copies the layers, which is exactly the "initialize the mutated graph
// with the well-trained weights of the base graph" rule of the Model
// Generator.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/nn"
)

// Domain distinguishes the feature space a node operates in. Features can
// only be shared within one domain (a conv feature map cannot feed a token
// block directly).
type Domain int

// Domains of node input features.
const (
	// DomainSpatial marks NCHW convolutional feature maps.
	DomainSpatial Domain = iota
	// DomainTokens marks [T, D] transformer token tensors.
	DomainTokens
	// DomainVector marks flat [D] vectors (head inputs).
	DomainVector
	// DomainRaw marks the raw model input (image or token ids).
	DomainRaw
)

// String implements fmt.Stringer.
func (d Domain) String() string {
	switch d {
	case DomainSpatial:
		return "spatial"
	case DomainTokens:
		return "tokens"
	case DomainVector:
		return "vector"
	case DomainRaw:
		return "raw"
	}
	return "unknown"
}

// Shape is a per-sample feature shape (no batch dimension).
type Shape []int

// Key renders a shape as a dictionary key.
func (s Shape) Key() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "x")
}

// Eq reports exact shape equality.
func (s Shape) Eq(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Similar reports whether two shapes agree in at least one dimension, the
// paper's input-shareable condition (Definition 2).
func (s Shape) Similar(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] == o[i] {
			return true
		}
	}
	return false
}

// Clone copies the shape.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// Node is one computation block in an abs-graph.
type Node struct {
	// TaskID is the task the node originally came from. The shared Input
	// root uses TaskID -1. Rescale adapters inherit the guest task's ID.
	TaskID int
	// OpID is the node's topological position in its original DNN. The
	// Input root uses OpID -1; Rescale adapters use the op id of the node
	// they feed, negated minus a large offset, so ids stay unique.
	OpID int
	// OpType names the block kind (e.g. "ConvBlock", "ResidualBlock",
	// "Head", "Rescale", "Input").
	OpType string
	// InputShape is the per-sample shape the node consumes.
	InputShape Shape
	// Domain classifies InputShape's feature space.
	Domain Domain
	// Capacity is the node's trainable parameter count.
	Capacity int64
	// Layer is the computation (nil for the Input root).
	Layer nn.Layer

	Parent   *Node
	Children []*Node
}

// IsHead reports whether the node is a task output head.
func (n *Node) IsHead() bool { return n.OpType == "Head" }

// IsInput reports whether the node is the shared input placeholder.
func (n *Node) IsInput() bool { return n.OpType == "Input" }

// IsRescale reports whether the node is a mutation-inserted adapter.
func (n *Node) IsRescale() bool { return n.OpType == "Rescale" }

// ID returns a human-readable identity string.
func (n *Node) ID() string {
	return fmt.Sprintf("t%d/op%d/%s", n.TaskID, n.OpID, n.OpType)
}

// Graph is an abstract graph: a tree rooted at the shared input
// placeholder, with one leaf head per task.
type Graph struct {
	Root *Node
	// Heads maps task id to that task's head node.
	Heads map[int]*Node
	// TaskNames maps task id to a human-readable task name.
	TaskNames map[int]string
	// Quant records the outcome of post-training quantization (see
	// internal/quant); nil for full-precision graphs.
	Quant *QuantNote
}

// QuantNote summarizes a quantization run for persistence and inspection:
// the accuracy budget it was given and the measured per-task metrics before
// and after. The per-op annotations themselves live on the layers.
type QuantNote struct {
	// Budget is the Config.AccuracyDrop the guard enforced.
	Budget float64
	// Baseline and Quantized map task id to the task metric measured on
	// held-out data before and after quantization.
	Baseline, Quantized map[int]float64
}

// Clone deep-copies the note.
func (q *QuantNote) Clone() *QuantNote {
	if q == nil {
		return nil
	}
	nq := &QuantNote{
		Budget:    q.Budget,
		Baseline:  make(map[int]float64, len(q.Baseline)),
		Quantized: make(map[int]float64, len(q.Quantized)),
	}
	for k, v := range q.Baseline {
		nq.Baseline[k] = v
	}
	for k, v := range q.Quantized {
		nq.Quantized[k] = v
	}
	return nq
}

// New creates a graph containing only the input placeholder.
func New(inputShape Shape, domain Domain) *Graph {
	return &Graph{
		Root: &Node{
			TaskID: -1, OpID: -1, OpType: "Input",
			InputShape: inputShape.Clone(), Domain: domain,
		},
		Heads:     make(map[int]*Node),
		TaskNames: make(map[int]string),
	}
}

// Tasks returns the sorted task ids present in the graph.
func (g *Graph) Tasks() []int {
	ids := make([]int, 0, len(g.Heads))
	for id := range g.Heads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// AddChild links child under parent and returns child.
func (g *Graph) AddChild(parent, child *Node) *Node {
	child.Parent = parent
	parent.Children = append(parent.Children, child)
	if child.IsHead() {
		g.Heads[child.TaskID] = child
	}
	return child
}

// Nodes returns every node except the root in deterministic DFS pre-order
// (children visited in slice order).
func (g *Graph) Nodes() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			out = append(out, c)
			walk(c)
		}
	}
	walk(g.Root)
	return out
}

// NodeCount returns the number of computation nodes (excluding the root).
func (g *Graph) NodeCount() int { return len(g.Nodes()) }

// Path returns the chain of nodes from the first node under the root down
// to (and including) the given node.
func (g *Graph) Path(n *Node) []*Node {
	var rev []*Node
	for cur := n; cur != nil && !cur.IsInput(); cur = cur.Parent {
		rev = append(rev, cur)
	}
	out := make([]*Node, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// TaskSet returns the set of task ids whose heads are reachable below n
// (including n itself if it is a head).
func (g *Graph) TaskSet(n *Node) map[int]bool {
	set := make(map[int]bool)
	var walk func(m *Node)
	walk = func(m *Node) {
		if m.IsHead() {
			set[m.TaskID] = true
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return set
}

// Validate checks structural invariants: tree-ness, one head per task,
// heads are leaves, parent/child links are consistent, and each node's
// input shape matches its parent's output shape.
func (g *Graph) Validate() error {
	seen := make(map[*Node]bool)
	var walk func(n *Node, outShape Shape) error
	walk = func(n *Node, parentOut Shape) error {
		for _, c := range n.Children {
			if seen[c] {
				return fmt.Errorf("graph: node %s reachable twice (not a tree)", c.ID())
			}
			seen[c] = true
			if c.Parent != n {
				return fmt.Errorf("graph: node %s has inconsistent parent link", c.ID())
			}
			if !c.InputShape.Eq(parentOut) {
				return fmt.Errorf("graph: node %s expects input %v but parent %s produces %v",
					c.ID(), c.InputShape, n.ID(), parentOut)
			}
			if c.IsHead() && len(c.Children) > 0 {
				return fmt.Errorf("graph: head %s is not a leaf", c.ID())
			}
			if c.Layer == nil {
				return fmt.Errorf("graph: non-input node %s has no layer", c.ID())
			}
			out := Shape(c.Layer.OutShape(c.InputShape))
			if err := walk(c, out); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(g.Root, g.Root.InputShape); err != nil {
		return err
	}
	for id, h := range g.Heads {
		if !seen[h] {
			return fmt.Errorf("graph: head for task %d is detached", id)
		}
		if h.TaskID != id {
			return fmt.Errorf("graph: head map entry %d points at %s", id, h.ID())
		}
	}
	headCount := 0
	for _, n := range g.Nodes() {
		if n.IsHead() {
			headCount++
		}
	}
	if headCount != len(g.Heads) {
		return fmt.Errorf("graph: %d head nodes but %d registered heads", headCount, len(g.Heads))
	}
	return nil
}

// OutShapeOf computes the output shape a node produces.
func OutShapeOf(n *Node) Shape {
	if n.IsInput() {
		return n.InputShape.Clone()
	}
	return Shape(n.Layer.OutShape(n.InputShape))
}

// Clone deep-copies the graph, including layer weights. The returned graph
// shares nothing with the original.
func (g *Graph) Clone() *Graph {
	ng := &Graph{Heads: make(map[int]*Node), TaskNames: make(map[int]string), Quant: g.Quant.Clone()}
	for k, v := range g.TaskNames {
		ng.TaskNames[k] = v
	}
	var cloneNode func(n *Node) *Node
	cloneNode = func(n *Node) *Node {
		c := &Node{
			TaskID: n.TaskID, OpID: n.OpID, OpType: n.OpType,
			InputShape: n.InputShape.Clone(), Domain: n.Domain,
			Capacity: n.Capacity,
		}
		if n.Layer != nil {
			c.Layer = n.Layer.Clone()
		}
		for _, child := range n.Children {
			cc := cloneNode(child)
			cc.Parent = c
			c.Children = append(c.Children, cc)
			if cc.IsHead() {
				ng.Heads[cc.TaskID] = cc
			}
		}
		return c
	}
	ng.Root = cloneNode(g.Root)
	return ng
}

// Params collects every trainable parameter in the graph in deterministic
// DFS order.
func (g *Graph) Params() []*nn.Param {
	var ps []*nn.Param
	for _, n := range g.Nodes() {
		ps = append(ps, n.Layer.Params()...)
	}
	return ps
}

// VocabOf returns the token vocabulary of the model's embedding stem, or 0
// for models without one (image inputs).
func VocabOf(g *Graph) int {
	for _, n := range g.Nodes() {
		if v := vocabOfLayer(n.Layer); v > 0 {
			return v
		}
	}
	return 0
}

func vocabOfLayer(l nn.Layer) int {
	switch v := l.(type) {
	case *nn.Embedding:
		return v.Vocab
	case *nn.Sequential:
		for _, s := range v.Layers {
			if r := vocabOfLayer(s); r > 0 {
				return r
			}
		}
	}
	return 0
}

// String renders an indented tree for debugging and logs.
func (g *Graph) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s in=%v", strings.Repeat("  ", depth), n.ID(), n.InputShape)
		if n.Layer != nil {
			fmt.Fprintf(&b, " %s", n.Layer.Name())
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(g.Root, 0)
	return b.String()
}

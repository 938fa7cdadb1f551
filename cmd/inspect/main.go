// Command inspect prints a report on a saved model checkpoint: the task
// list, the block tree, capacity and FLOPs statistics, and optionally a
// Graphviz DOT rendering of the architecture or the compiled execution
// plan the serving path runs.
//
// Usage:
//
//	inspect -model fused.gmck [-dot fused.dot] [-plan] [-quant]
//	inspect -shared a.gmck b.gmck [...]
//	inspect -fusion decisions.json
//
// The -fusion form renders a fusion search's per-decision report (written
// by gmorph -decisions): for every search round, the mutation tried, which
// filter acted (capacity rule, memo replay), the measured accuracy margin
// and latency, and the outcome.
//
// The -shared form compares two or more checkpoints' prefix fingerprint
// chains and reports how deep a weight-identical stem they share, each
// model's divergent remainder, and the FLOPs a shared-stem deployment
// would save by running the stem once per coalesced batch.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/search/explain"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("inspect: ")
	modelPath := flag.String("model", "", "checkpoint to inspect (required)")
	dotPath := flag.String("dot", "", "optional path to write a Graphviz DOT rendering")
	showPlan := flag.Bool("plan", false, "print the compiled execution plan (op list, wave schedule, buffer plan)")
	showQuant := flag.Bool("quant", false, "print the quantization report (per-op precision, scales, accuracy delta)")
	shared := flag.Bool("shared", false, "compare the positional checkpoints' stems and report shared-prefix serving potential")
	fusionPath := flag.String("fusion", "", "render a fusion decision report written by gmorph -decisions")
	flag.Parse()
	if *fusionPath != "" {
		ds, err := explain.Load(*fusionPath)
		if err != nil {
			log.Fatal(err)
		}
		explain.Render(os.Stdout, ds)
		return
	}
	if *shared {
		if flag.NArg() < 2 {
			log.Fatal("-shared wants at least two checkpoint paths")
		}
		if err := sharedReport(flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *modelPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	g, err := parser.LoadFile(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: %s\n", *modelPath)
	fmt.Printf("fingerprint: %s\n", fingerprint.String(g))
	fmt.Printf("input shape: %v\n", g.Root.InputShape)
	fmt.Printf("tasks (%d):\n", len(g.Heads))
	for _, id := range g.Tasks() {
		name := g.TaskNames[id]
		if name == "" {
			name = fmt.Sprintf("task-%d", id)
		}
		head := g.Heads[id]
		fmt.Printf("  %d: %-12s head input %v, path length %d blocks\n",
			id, name, head.InputShape, len(g.Path(head)))
	}

	g.RefreshCapacities()
	p := g.Capacity()
	fmt.Printf("blocks: %d (of which shared: %d params %d)\n", g.NodeCount(), sharedNodes(g), p.Shared)
	fmt.Printf("parameters: %d total\n", p.Total)
	for _, id := range g.Tasks() {
		fmt.Printf("  task %d: total %d, task-specific %d\n", id, p.TaskTotal[id], p.TaskSpecific[id])
	}
	fmt.Printf("FLOPs/sample: %d\n", g.FLOPs())
	fmt.Println("\nblock tree:")
	fmt.Print(g.String())

	if *showPlan {
		p := plan.Compile(g)
		fmt.Printf("\nkernels: %s\n", tensor.KernelSignature())
		fmt.Println(p.String())
		printOpStats(p)
	}

	if *showQuant {
		printQuant(g)
	}

	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(g.ToDOT(*modelPath)), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *dotPath)
	}
}

// printOpStats runs a few warm forwards on a zero input (valid for image
// tensors and for token ids, since id 0 is always in vocab) and prints the
// per-op timing counters, so every op shows measured calls and nanoseconds
// rather than a blank row.
func printOpStats(p *plan.Plan) {
	const batch, iters = 2, 3
	inst := p.NewInstance()
	x := tensor.New(append([]int{batch}, p.InShape...)...)
	for i := 0; i < iters; i++ {
		inst.Execute(x)
	}
	fmt.Printf("\nper-op timings (%d forwards, batch %d):\n", iters, batch)
	for _, st := range inst.OpStats() {
		perCall := int64(0)
		if st.Calls > 0 {
			perCall = st.Nanos / st.Calls
		}
		fmt.Printf("  %-3d %-10s %-5s calls %-3d %9dns/call  %s\n",
			st.ID, st.Kind, st.Precision, st.Calls, perCall, st.Name)
	}
}

// printQuant reports the checkpoint's quantization state: every
// quantizable op with its precision and scales, and the accuracy delta the
// guard recorded at quantization time.
func printQuant(g *graph.Graph) {
	p := plan.Compile(g)
	fmt.Println("\nquantization report:")
	if len(p.QuantTargets) == 0 {
		fmt.Println("  no quantizable ops")
		return
	}
	int8Ops := 0
	for _, t := range p.QuantTargets {
		q := *nn.QuantSlot(t.Layer)
		switch {
		case q != nil:
			int8Ops++
			lo, hi := q.WScale[0], q.WScale[0]
			for _, s := range q.WScale {
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			fmt.Printf("  op %-3d int8  %-40s in_scale %.3e  w_scale [%.3e, %.3e] (%d ch)\n",
				t.OpID, t.Name, q.InScale, lo, hi, q.Rows)
		case t.Head:
			fmt.Printf("  op %-3d f32   %-40s (head output)\n", t.OpID, t.Name)
		default:
			fmt.Printf("  op %-3d f32   %-40s\n", t.OpID, t.Name)
		}
	}
	fmt.Printf("  %d of %d quantizable ops at int8\n", int8Ops, len(p.QuantTargets))
	if q := g.Quant; q != nil {
		fmt.Printf("  accuracy budget %.4f\n", q.Budget)
		ids := g.Tasks()
		for _, id := range ids {
			base, ok := q.Baseline[id]
			if !ok {
				continue
			}
			after := q.Quantized[id]
			fmt.Printf("  task %d (%s): metric %.4f -> %.4f (delta %+.4f)\n",
				id, g.TaskNames[id], base, after, after-base)
		}
	}
}

// sharedReport loads every checkpoint, intersects their prefix fingerprint
// chains, and reports the depth of the weight-identical stem, each model's
// divergent remainder, and the FLOPs a shared-stem deployment would save
// per mixed batch (the stem runs once instead of once per model).
func sharedReport(paths []string) error {
	type entry struct {
		path  string
		g     *graph.Graph
		chain []uint64
	}
	entries := make([]*entry, 0, len(paths))
	for _, path := range paths {
		g, err := parser.LoadFile(path)
		if err != nil {
			return err
		}
		entries = append(entries, &entry{path: path, g: g, chain: fingerprint.PrefixHashes(g)})
	}
	depth := len(entries[0].chain)
	for _, e := range entries[1:] {
		if d := fingerprint.SharedDepth(entries[0].chain, e.chain); d < depth {
			depth = d
		}
	}
	fmt.Printf("models: %d\n", len(entries))
	fmt.Printf("shared stem: %d blocks", depth)
	if depth > 0 {
		fmt.Printf(" (fingerprint %016x)", entries[0].chain[depth-1])
	}
	fmt.Println()

	stem := fingerprint.StemNodes(entries[0].g)
	var stemFLOPs int64
	for i := 0; i < depth; i++ {
		f := stem[i].Layer.FLOPs(stem[i].InputShape)
		stemFLOPs += f
		fmt.Printf("  stem %d: %-12s input %v  %d FLOPs\n", i, stem[i].OpType, stem[i].InputShape, f)
	}

	var separate, shared int64
	shared = stemFLOPs
	for _, e := range entries {
		total := e.g.FLOPs()
		head := total - stemFLOPs
		separate += total
		shared += head
		var params int64
		for _, p := range e.g.Params() {
			params += int64(p.Value.Size())
		}
		fmt.Printf("model %s: %d tasks, %d params, %d FLOPs/sample (%d beyond the stem, %.1f%%)\n",
			e.path, len(e.g.Heads), params, total, head, pct(head, total))
	}
	if depth == 0 {
		fmt.Println("no shared stem: these models would serve separately")
		return nil
	}
	fmt.Printf("per-sample FLOPs, one request per model: separate %d, shared %d (%.1f%% saved)\n",
		separate, shared, pct(separate-shared, separate))
	return nil
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func sharedNodes(g *graph.Graph) int {
	var n int
	for _, nd := range g.Nodes() {
		if len(g.TaskSet(nd)) > 1 {
			n++
		}
	}
	return n
}

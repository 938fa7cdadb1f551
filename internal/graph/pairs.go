package graph

import "sort"

// Pair is an input-shareable node pair (Definition 2): Guest reuses Host's
// input features. Applying it re-parents Guest next to Host (sharing Host's
// input tensor), inserting a Rescale adapter when the shapes differ.
type Pair struct {
	Host, Guest *Node
}

// ShareablePairs enumerates every legal input-shareable node pair in the
// graph. A pair (host, guest) is legal when:
//
//   - both nodes consume non-raw features in the same domain,
//   - their input shapes agree in at least one dimension (Definition 2),
//   - guest is not a Rescale adapter (adapters are implementation detail),
//   - guest is not already a child of host's parent (the mutation would be
//     a no-op),
//   - host is not a descendant of guest (re-parenting guest under host's
//     parent would create a cycle), and
//   - the pair is not (n, n).
//
// The result is deterministic: sorted by (host task, host op, guest task,
// guest op).
func (g *Graph) ShareablePairs() []Pair {
	nodes := g.Nodes()
	var pairs []Pair
	for _, host := range nodes {
		if host.Domain == DomainRaw || host.IsRescale() {
			continue
		}
		for _, guest := range nodes {
			if guest == host || guest.Domain == DomainRaw || guest.IsRescale() {
				continue
			}
			if guest.Domain != host.Domain {
				continue
			}
			if !host.InputShape.Similar(guest.InputShape) {
				continue
			}
			if guest.Parent == host.Parent || guest.Parent == nil {
				continue
			}
			if isDescendant(guest, host) {
				continue
			}
			pairs = append(pairs, Pair{Host: host, Guest: guest})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.Host.TaskID != b.Host.TaskID {
			return a.Host.TaskID < b.Host.TaskID
		}
		if a.Host.OpID != b.Host.OpID {
			return a.Host.OpID < b.Host.OpID
		}
		if a.Guest.TaskID != b.Guest.TaskID {
			return a.Guest.TaskID < b.Guest.TaskID
		}
		return a.Guest.OpID < b.Guest.OpID
	})
	return pairs
}

// isDescendant reports whether candidate lies in the subtree rooted at
// ancestor (excluding ancestor itself).
func isDescendant(ancestor, candidate *Node) bool {
	for cur := candidate.Parent; cur != nil; cur = cur.Parent {
		if cur == ancestor {
			return true
		}
	}
	return false
}

// SameBranch reports whether two nodes lie on one root-to-leaf chain, which
// makes a pair an in-branch mutation; otherwise it is cross-branch.
func SameBranch(a, b *Node) bool {
	return isDescendant(a, b) || isDescendant(b, a)
}

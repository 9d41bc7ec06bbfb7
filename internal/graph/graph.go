// Package graph implements the triggering graph of Definition 6.1: a
// directed graph with one vertex per integrity rule and an edge J1 → J2
// whenever J1's action can raise a trigger in J2's trigger set. Infinite
// rule triggering can only occur when the graph has a cycle; the analysis
// here is what a database designer uses (via cmd/rulecheck or the public
// API) to validate a rule set before enabling it.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rules"
)

// Graph is a triggering graph over a compiled rule set.
type Graph struct {
	names []string
	index map[string]int
	adj   [][]int
}

// Build constructs the triggering graph of the catalog's integrity
// programs: an edge J1 → J2 iff rules.Selects(J1, J2), that is iff what
// J1's action can write raises a trigger in J2's trigger set. Aborting rules
// without a repair have no outgoing edges (their enforcement programs
// contain only alarms), non-triggering actions contribute none (Definition
// 6.2), and a repairing rule has no self-edge: the subsystem selects by the
// same predicate, so these are exactly the selections that can occur at
// run time.
func Build(programs []*rules.IntegrityProgram) *Graph {
	g := &Graph{index: make(map[string]int, len(programs))}
	for _, ip := range programs {
		g.index[ip.RuleName] = len(g.names)
		g.names = append(g.names, ip.RuleName)
	}
	g.adj = make([][]int, len(g.names))
	for i, from := range programs {
		for j, to := range programs {
			if rules.Selects(from, to) {
				g.adj[i] = append(g.adj[i], j)
			}
		}
	}
	return g
}

// Edges returns the edge list as (from, to) rule-name pairs, sorted.
func (g *Graph) Edges() [][2]string {
	var out [][2]string
	for i, succ := range g.adj {
		for _, j := range succ {
			out = append(out, [2]string{g.names[i], g.names[j]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// Cycles returns the rule-name groups that can trigger each other forever:
// every strongly connected component with more than one vertex, plus every
// vertex with a self-loop. An empty result means the rule set cannot loop.
func (g *Graph) Cycles() [][]string {
	sccs := g.tarjan()
	var out [][]string
	for _, comp := range sccs {
		if len(comp) > 1 {
			names := make([]string, len(comp))
			for i, v := range comp {
				names[i] = g.names[v]
			}
			sort.Strings(names)
			out = append(out, names)
			continue
		}
		v := comp[0]
		for _, w := range g.adj[v] {
			if w == v {
				out = append(out, []string{g.names[v]})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Validate returns a descriptive error when the graph has cycles, listing
// each cycle and the sanctioned remedies; nil otherwise.
func (g *Graph) Validate() error {
	cycles := g.Cycles()
	if len(cycles) == 0 {
		return nil
	}
	var sb strings.Builder
	sb.WriteString("graph: triggering cycles detected; declare a compensating action non-triggering or restructure the rules:")
	for _, c := range cycles {
		fmt.Fprintf(&sb, " {%s}", strings.Join(c, " -> "))
	}
	return fmt.Errorf("%s", sb.String())
}

// tarjan computes strongly connected components (Tarjan's algorithm,
// iterative-enough for the small graphs rule sets form).
func (g *Graph) tarjan() [][]int {
	n := len(g.names)
	indexOf := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range indexOf {
		indexOf[i] = -1
	}
	var stack []int
	var sccs [][]int
	counter := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		indexOf[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.adj[v] {
			if indexOf[w] < 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && indexOf[w] < low[v] {
				low[v] = indexOf[w]
			}
		}
		if low[v] == indexOf[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for v := 0; v < n; v++ {
		if indexOf[v] < 0 {
			strongconnect(v)
		}
	}
	return sccs
}

// DOT renders the graph in Graphviz DOT format for visual inspection.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph triggering {\n")
	for _, n := range g.names {
		fmt.Fprintf(&sb, "  %q;\n", n)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %q -> %q;\n", e[0], e[1])
	}
	sb.WriteString("}\n")
	return sb.String()
}

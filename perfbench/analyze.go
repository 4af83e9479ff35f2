package main

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// planNode is one operator line of EXPLAIN ANALYZE output.
type planNode struct {
	depth    int
	name     string // operator name as printed (SeqScan, Filter, PsiJoin(NL), ...)
	line     string
	estRows  float64
	rows     int64
	loops    int64
	total    time.Duration // inclusive time summed over loops
	self     time.Duration
	children []*planNode
}

var nodeLine = regexp.MustCompile(`^(\s*)(\S+).*\(rows=([0-9.e+]+) cost=[0-9.e+]+\) \(actual rows=(\d+) loops=(\d+) time=([^)]+)\)`)

// parseAnalyze reads the operator tree of an EXPLAIN ANALYZE rendering and
// computes each operator's self time: its time minus its children's. Under
// a Gather the children ran on the workers at once, so their summed time
// is divided by the worker count (loops) to get the wall time they cover.
// A fused filter-over-scan kernel reports its whole time on both the
// filter and the scan; that time is the filter's self time, since the
// predicate kernel reads the raw page records itself.
func parseAnalyze(text string) []*planNode {
	var all []*planNode
	var stack []*planNode
	for _, line := range strings.Split(text, "\n") {
		m := nodeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n := &planNode{depth: len(m[1]) / 2, name: m[2], line: line}
		n.estRows, _ = strconv.ParseFloat(m[3], 64)
		n.rows, _ = strconv.ParseInt(m[4], 10, 64)
		n.loops, _ = strconv.ParseInt(m[5], 10, 64)
		n.total, _ = time.ParseDuration(strings.ReplaceAll(m[6], "µ", "u"))
		for len(stack) > 0 && stack[len(stack)-1].depth >= n.depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			p.children = append(p.children, n)
		}
		stack = append(stack, n)
		all = append(all, n)
	}
	for _, n := range all {
		var covered time.Duration
		for _, c := range n.children {
			if n.name == "Gather" && c.loops > 1 {
				covered += c.total / time.Duration(c.loops)
			} else {
				covered += c.total
			}
		}
		n.self = max(n.total-covered, 0)
	}
	for _, n := range all {
		if n.name == "Filter" && len(n.children) == 1 {
			if c := n.children[0]; strings.Contains(c.name, "Scan") && c.total == n.total && c.loops == n.loops {
				n.self, c.self = n.total, 0
			}
		}
	}
	return all
}

// execBucket maps an operator to the exec.*_self_ms metric it feeds.
func execBucket(n *planNode) string {
	switch {
	case strings.Contains(n.name, "Scan"):
		return "exec.scan_self_ms"
	case n.name == "Filter" && strings.Contains(n.line, "Ψ("):
		return "exec.psi_filter_self_ms"
	case n.name == "Filter" && strings.Contains(n.line, "Ω("):
		return "exec.omega_filter_self_ms"
	case strings.Contains(n.name, "Join"):
		return "exec.join_self_ms"
	case n.name == "Gather":
		return "exec.gather_self_ms"
	case n.name == "Aggregate":
		return "exec.agg_self_ms"
	}
	return ""
}

// predicateNode is the operator evaluating the statement's Ψ or Ω
// predicate (a filter, an M-Tree probe or a Ψ join), or nil.
func predicateNode(nodes []*planNode) *planNode {
	for _, n := range nodes {
		if strings.Contains(n.line, "Ψ(") || strings.Contains(n.line, "Ω(") || strings.HasPrefix(n.name, "PsiJoin") || strings.HasPrefix(n.name, "OmegaJoin") {
			return n
		}
	}
	return nil
}

// cardErr is |log10(estimate/actual)| with both counts shifted by one.
func cardErr(n *planNode) float64 {
	return math.Abs(math.Log10((n.estRows + 1) / (float64(n.rows) + 1)))
}

package main

import (
	"fmt"
	"sort"
	"sync"
	"unicode/utf8"

	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// oracle derives reference answers from the generated inputs alone: the
// stored phonemes with phonetic.EditDistance for Ψ, and wordnet.Net.Closure
// for Ω. It never calls the engine's plan, exec, storage or index code, so
// an answer the engine gets wrong cannot also be wrong here the same way.
type oracle struct {
	in *inputs

	// Distinct phonemes of the names table, and the rows carrying each.
	phs  []string
	phN  []int
	rows [][]int

	mu       sync.Mutex
	dist     map[string][]uint8 // query phoneme -> distance to each of phs
	closures map[wordnet.SynsetID]map[wordnet.SynsetID]struct{}
}

// maxK bounds the thresholds the workloads use; distances above it are
// stored as maxK+1.
const maxK = 3

func newOracle(in *inputs) *oracle {
	o := &oracle{in: in, dist: map[string][]uint8{}, closures: map[wordnet.SynsetID]map[wordnet.SynsetID]struct{}{}}
	idx := map[string]int{}
	for i, r := range in.names {
		j, ok := idx[r.Name.Phoneme]
		if !ok {
			j = len(o.phs)
			idx[r.Name.Phoneme] = j
			o.phs = append(o.phs, r.Name.Phoneme)
			o.phN = append(o.phN, utf8.RuneCountInString(r.Name.Phoneme))
			o.rows = append(o.rows, nil)
		}
		o.rows[j] = append(o.rows[j], i)
	}
	return o
}

// capped is the edit distance of a and b, or maxK+1 when it exceeds maxK.
func capped(a string, an int, b string, bn int) uint8 {
	if d := an - bn; d > maxK || d < -maxK {
		return maxK + 1
	}
	if d := phonetic.EditDistance(a, b); d <= maxK {
		return uint8(d)
	}
	return maxK + 1
}

// distances returns the cached distance vector of one query phoneme.
func (o *oracle) distances(ph string) []uint8 {
	o.mu.Lock()
	d, ok := o.dist[ph]
	o.mu.Unlock()
	if ok {
		return d
	}
	n := utf8.RuneCountInString(ph)
	d = make([]uint8, len(o.phs))
	for i, p := range o.phs {
		d[i] = capped(ph, n, p, o.phN[i])
	}
	o.mu.Lock()
	o.dist[ph] = d
	o.mu.Unlock()
	return d
}

func admitted(lang types.LangID, langs []types.LangID) bool {
	if len(langs) == 0 {
		return true
	}
	for _, l := range langs {
		if l == lang {
			return true
		}
	}
	return false
}

// psiIDs is the sorted id list of `name LEXEQUAL q THRESHOLD k IN langs`
// over the names table.
func (o *oracle) psiIDs(q dataset.NameRecord, k int, langs []types.LangID) []int64 {
	d := o.distances(q.Name.Phoneme)
	var out []int64
	for i, di := range d {
		if int(di) > k {
			continue
		}
		for _, r := range o.rows[i] {
			if rec := o.in.names[r]; admitted(rec.Name.Lang, langs) {
				out = append(out, int64(rec.ID))
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// psiMatch reports whether one generated row matches a Ψ selection; the
// ingest check uses it for rows inserted during the run.
func psiMatch(q, r dataset.NameRecord, k int, langs []types.LangID) bool {
	if !admitted(r.Name.Lang, langs) {
		return false
	}
	return int(capped(q.Name.Phoneme, utf8.RuneCountInString(q.Name.Phoneme),
		r.Name.Phoneme, utf8.RuneCountInString(r.Name.Phoneme))) <= k
}

// joinCount is `count(*)` of the Ψ join of the probe rows with the names
// table at threshold k.
func (o *oracle) joinCount(probes []dataset.NameRecord, k int) int64 {
	var n int64
	for _, p := range probes {
		for i, di := range o.distances(p.Name.Phoneme) {
			if int(di) <= k {
				n += int64(len(o.rows[i]))
			}
		}
	}
	return n
}

func (o *oracle) closure(root wordnet.SynsetID) map[wordnet.SynsetID]struct{} {
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.closures[root]
	if !ok {
		c = o.in.net.Closure(root)
		o.closures[root] = c
	}
	return c
}

// omegaCount is `count(*)` of `cat SEMEQUAL lemma IN langs` over items.
func (o *oracle) omegaCount(c concept, langs []types.LangID) int64 {
	tc := o.closure(c.Root)
	var n int64
	for _, it := range o.in.items {
		if !admitted(it.Word.Lang, langs) {
			continue
		}
		for _, s := range o.in.net.SynsetsOf(it.Word.Lang, it.Word.Text) {
			if _, ok := tc[s]; ok {
				n++
				break
			}
		}
	}
	return n
}

// probeRows are the join's outer rows: the first English name of each of
// the first n clusters in table order, as bench.LoadNames builds them.
func probeRows(names []dataset.NameRecord, n int) []dataset.NameRecord {
	var out []dataset.NameRecord
	seen := map[int]bool{}
	for _, r := range names {
		if len(out) >= n {
			break
		}
		if r.Name.Lang != types.LangEnglish || seen[r.Cluster] {
			continue
		}
		seen[r.Cluster] = true
		out = append(out, r)
	}
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mismatch formats an oracle failure.
func mismatch(o *op, got, want any) error {
	return fmt.Errorf("wrong answer for %q: got %v, want %v", o.sql, got, want)
}

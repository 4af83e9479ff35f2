package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// sizes fixes the table and mix sizes of one workload.
type sizes struct {
	Names    int `json:"names"`
	Extra    int `json:"insert_pool,omitempty"`
	Probes   int `json:"probes,omitempty"`
	Items    int `json:"items,omitempty"`
	Synsets  int `json:"synsets,omitempty"`
	Queries  int `json:"query_names"`
	Concepts int `json:"concepts,omitempty"`
}

// item is one row of the Ω table: a word form of a synset in a language.
type item struct {
	ID   int
	Word types.UniText
}

// concept is one Ω query: an English lemma of a synset.
type concept struct {
	Lemma string
	Root  wordnet.SynsetID
}

// inputs is everything a workload generates from its seed. The engine only
// ever sees the SQL text and rows built from it.
type inputs struct {
	seed     int64
	names    []dataset.NameRecord // table rows (ids 0..len-1)
	extra    []dataset.NameRecord // fresh rows for the ingest writer
	queries  []dataset.NameRecord // Ψ query names: English, one per cluster
	net      *wordnet.Net
	items    []item
	concepts []concept
}

// omegaLangs are the output-language clauses the Ω mix draws from.
var omegaLangs = [][]types.LangID{
	{types.LangEnglish},
	{types.LangEnglish, types.LangFrench},
	{types.LangEnglish, types.LangFrench, types.LangTamil},
}

// psiLangs are the Ψ IN clauses; English is listed first so the query
// literal is read as English, the language it was drawn from.
var psiLangs = [][]types.LangID{
	nil,
	{types.LangEnglish, types.LangHindi},
	{types.LangEnglish, types.LangTamil, types.LangKannada},
}

func generate(seed int64, sz sizes) *inputs {
	in := &inputs{seed: seed}
	all := dataset.GenerateNames(dataset.NamesConfig{Records: sz.Names + sz.Extra, Seed: seed})
	in.names, in.extra = all[:sz.Names], all[sz.Names:]

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[int]bool{}
	var english []dataset.NameRecord
	for _, r := range in.names {
		if r.Name.Lang == types.LangEnglish && !seen[r.Cluster] {
			seen[r.Cluster] = true
			english = append(english, r)
		}
	}
	rng.Shuffle(len(english), func(i, j int) { english[i], english[j] = english[j], english[i] })
	if len(english) > sz.Queries {
		english = english[:sz.Queries]
	}
	in.queries = english

	if sz.Items > 0 {
		taxonomy(in, rng, seed, sz)
	}
	return in
}

// taxonomy generates the Ω inputs: a multilingual WordNet, the items
// tagged with its word forms, and the query concepts.
func taxonomy(in *inputs, rng *rand.Rand, seed int64, sz sizes) {
	{
		langs := []types.LangID{types.LangEnglish, types.LangFrench, types.LangTamil}
		in.net = wordnet.Generate(wordnet.Config{Synsets: sz.Synsets, Seed: seed, Langs: langs})
		n := in.net.NumSynsets()
		for i := 0; i < sz.Items; i++ {
			s := wordnet.SynsetID(rng.Intn(n))
			lang := langs[rng.Intn(len(langs))]
			forms := in.net.WordForms(lang, s)
			in.items = append(in.items, item{ID: i, Word: types.Compose(forms[rng.Intn(len(forms))], lang)})
		}
		// Concepts: synsets whose closures hold 0.25%-10% of the taxonomy,
		// so every Ω query matches some items and none matches most.
		lo, hi := n/400, n/10
		if lo < 2 {
			lo = 2
		}
		for tries := 0; len(in.concepts) < sz.Concepts && tries < 1000*sz.Concepts; tries++ {
			s := wordnet.SynsetID(rng.Intn(n))
			if c := in.net.ClosureSize(s); c < lo || c > hi {
				continue
			}
			lemma := in.net.Lemma(types.LangEnglish, s)
			if len(in.net.SynsetsOf(types.LangEnglish, lemma)) != 1 {
				continue
			}
			in.concepts = append(in.concepts, concept{Lemma: lemma, Root: s})
		}
	}
}

// quote renders a SQL string literal.
func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

func langList(ls []types.LangID) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.String()
	}
	return strings.Join(parts, ", ")
}

// pivot is the MDI pivot the names fixture stores pdist against.
const pivot = "aeioun"

// insertSQL is the ingest writer's single-row durable INSERT.
func insertSQL(r dataset.NameRecord) string {
	return fmt.Sprintf("INSERT INTO names VALUES (%d, unitext(%s, %s), %d)",
		r.ID, quote(r.Name.Text), r.Name.Lang, phonetic.EditDistance(r.Name.Phoneme, pivot))
}

func itemRows(items []item) []string {
	rows := make([]string, len(items))
	for i, it := range items {
		rows[i] = fmt.Sprintf("(%d, unitext(%s, %s))", it.ID, quote(it.Word.Text), it.Word.Lang)
	}
	return rows
}

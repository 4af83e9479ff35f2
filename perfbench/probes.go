package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/mural-db/mural/internal/bench"
	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wire"
	"github.com/mural-db/mural/mural"
)

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int

// probes times each module's public functions on the workload's own
// inputs, and fills the storage and shard figures the workload's traffic
// did not produce from small probe engines built from the same inputs.
func (m metrics) probes(r *run, it *instance, reps []replayed, tr *tracer, replayEnd int) error {
	tr.on.Store(true)
	defer tr.on.Store(false)
	names := append(append([]dataset.NameRecord(nil), r.in.names...), r.in.extra...)
	if len(names) > 2000 {
		names = names[:2000]
	}

	// phonetic: G2P conversion, uncached.
	reg := phonetic.DefaultRegistry()
	d := tr.timed("phonetic.g2p", func() {
		for _, n := range names {
			sink += len(reg.ToPhoneme(types.Compose(n.Name.Text, n.Name.Lang)))
		}
	})
	m.set("phonetic.g2p_ns", float64(d)/float64(len(names)), "ns")

	// phonetic: bounded edit distance, Myers bit-parallel vs banded DP, on
	// (query, stored name) pairs.
	qs := r.in.queries[:min(20, len(r.in.queries))]
	cands := r.in.names[:min(500, len(r.in.names))]
	pairs := float64(len(qs) * len(cands))
	d = tr.timed("phonetic.editdist_myers", func() {
		for _, q := range qs {
			bm := phonetic.NewBoundedMatcher(q.Name.Phoneme, 2)
			for _, c := range cands {
				if bm.Match(c.Name.Phoneme) {
					sink++
				}
			}
		}
	})
	m.set("phonetic.editdist_myers_ns", float64(d)/pairs, "ns")
	d = tr.timed("phonetic.editdist_banded", func() {
		for _, q := range qs {
			for _, c := range cands {
				if _, ok := phonetic.BoundedEditDistance(q.Name.Phoneme, c.Name.Phoneme, 2); ok {
					sink++
				}
			}
		}
	})
	m.set("phonetic.editdist_banded_ns", float64(d)/pairs, "ns")

	// wordnet: closure of each concept of the Ω mix (a taxonomy generated
	// from the seed when the workload has none).
	tax := r.in
	if tax.net == nil {
		tax = &inputs{}
		taxonomy(tax, rand.New(rand.NewSource(r.seed)), r.seed, sizes{Items: 5000, Synsets: 20000, Concepts: 200})
	}
	var sizeSum int
	d = tr.timed("wordnet.closure", func() {
		for _, c := range tax.concepts {
			sizeSum += len(tax.net.Closure(c.Root))
		}
	})
	m.set("wordnet.closure_us", us(d)/float64(max(len(tax.concepts), 1)), "us")
	m.set("wordnet.closure_size_mean", float64(sizeSum)/float64(max(len(tax.concepts), 1)), "count")

	// types and storage: raw record access over the names heap.
	if err := m.scanProbe(it.data, tr); err != nil {
		return err
	}

	// wire: frame one names row out and back in.
	row := wire.EncodeRow(types.Tuple{types.NewInt(1), types.NewUniText(r.in.names[0].Name), types.NewInt(3)})
	const frames = 20000
	var buf bytes.Buffer
	var ferr error
	d = tr.timed("wire.frame", func() {
		for i := 0; i < frames && ferr == nil; i++ {
			buf.Reset()
			if ferr = wire.Write(&buf, wire.MsgRow, row); ferr == nil {
				_, _, ferr = wire.Read(&buf)
			}
		}
	})
	if ferr != nil {
		return ferr
	}
	m.set("wire.frame_ns", float64(d)/frames, "ns")

	eng, err := probeEngine(r, tax)
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := m.indexProbe(r, it, reps, tr, eng); err != nil {
		return err
	}
	if err := m.execProbe(r, tax, eng); err != nil {
		return err
	}
	if err := m.storageProbe(r, tr); err != nil {
		return err
	}
	if err := m.shardFigures(r, reps, tr, replayEnd); err != nil {
		return err
	}

	// plan: the Figure 7 Example-5 plan choice, twice; it must repeat.
	var first [2]bool
	for i := range first {
		f7, err := bench.RunFigure7(bench.Fig7Config{Authors: 120, Publishers: 40, Books: 600, Threshold: 2, Seed: r.seed})
		if err != nil {
			return err
		}
		first[i] = f7.ChosenMatchesPlan1
	}
	if first[0] != first[1] {
		return fmt.Errorf("exact counts: Figure 7 plan choice changed between two runs")
	}
	m.set("plan.fig7_psi_first", b2f(first[0]), "0/1")
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// scanProbe passes over the names heap twice through Engine.ScanRecords:
// once touching each record, once decoding its name field in place.
func (m metrics) scanProbe(eng *mural.Engine, tr *tracer) error {
	pages, err := eng.TablePages("names")
	if err != nil {
		return err
	}
	pass := func(fn func(rec []byte) error) (int, time.Duration, error) {
		sc, err := eng.ScanRecords("names", 0, pages)
		if err != nil {
			return 0, 0, err
		}
		n := 0
		t0 := time.Now()
		for {
			more, err := sc.NextPage(func(rec []byte) error { n++; return fn(rec) })
			if err != nil || !more {
				d := time.Since(t0)
				if cerr := sc.Close(); err == nil {
					err = cerr
				}
				return n, d, err
			}
		}
	}
	s := tr.begin()
	n, d, err := pass(func(rec []byte) error { sink += len(rec); return nil })
	tr.end("storage.heap_scan", s, 0)
	if err != nil {
		return err
	}
	m.set("storage.heap_scan_ns_per_record", float64(d)/float64(max(n, 1)), "ns")
	s = tr.begin()
	n2, d2, err := pass(func(rec []byte) error {
		f, err := types.RawField(rec, 1)
		if err != nil {
			return err
		}
		_, text, ph, err := types.UniTextViews(f)
		sink += len(text) + len(ph)
		return err
	})
	tr.end("types.rawfield", s, 0)
	if err != nil {
		return err
	}
	m.set("types.rawfield_ns", float64(d2-d)/float64(max(n2, 1)), "ns")
	return nil
}

// indexProbe probes the workload's M-Tree with the replayed Ψ statements,
// and a B-tree and an MDI index built over the same names.
func (m metrics) indexProbe(r *run, it *instance, reps []replayed, tr *tracer, eng *mural.Engine) error {
	type probe struct {
		ph string
		k  int
	}
	var ps []probe
	for _, rp := range reps {
		if rp.op.cls == clsPsi {
			ps = append(ps, probe{r.in.queries[rp.op.q].Name.Phoneme, rp.op.k})
		}
	}
	for i := 0; len(ps) < 30 && i < len(r.in.queries); i++ {
		ps = append(ps, probe{r.in.queries[i].Name.Phoneme, 1 + i%maxK})
	}
	var pages int
	var perr error
	d := tr.timed("index.mtree", func() {
		for _, p := range ps {
			rids, pg, err := it.data.MTreeSearch("idx_names_mtree", p.ph, p.k)
			if err != nil {
				perr = err
				return
			}
			sink += len(rids)
			pages += pg
		}
	})
	if perr != nil {
		return perr
	}
	m.set("index.mtree_probe_us", us(d)/float64(len(ps)), "us")
	m.set("index.mtree_pages_per_probe", float64(pages)/float64(len(ps)), "count")

	rows := r.in.names[:min(5000, len(r.in.names))]
	const lookups = 2000
	d = tr.timed("index.btree", func() {
		for i := 0; i < lookups; i++ {
			key := types.KeyOf(types.NewInt(int64(rows[(i*7919)%len(rows)].ID)))
			rids, _, err := eng.IndexSearch("p_id", key, key)
			if err != nil {
				perr = err
				return
			}
			sink += len(rids)
		}
	})
	if perr != nil {
		return perr
	}
	m.set("index.btree_probe_us", us(d)/lookups, "us")
	var matches, candidates int
	d = tr.timed("index.mdi", func() {
		for _, p := range ps {
			rids, _, cand, err := eng.MDISearch("p_mdi", p.ph, p.k)
			if err != nil {
				perr = err
				return
			}
			matches += len(rids)
			candidates += cand
		}
	})
	if perr != nil {
		return perr
	}
	m.set("index.mdi_probe_us", us(d)/float64(len(ps)), "us")
	m.set("index.mdi_precision", float64(matches)/float64(max(candidates, 1)), "ratio")
	return nil
}

// probeEngine is an in-memory engine over the workload's first 5000 names
// (B-tree on id, MDI on name), its first join probe rows, and items
// tagged from the workload's taxonomy (or the seed-generated one).
func probeEngine(r *run, tax *inputs) (*mural.Engine, error) {
	eng, err := mural.Open(mural.Config{WordNet: tax.net})
	if err != nil {
		return nil, err
	}
	rows := r.in.names[:min(5000, len(r.in.names))]
	vals := make([]string, len(rows))
	for i, n := range rows {
		vals[i] = fmt.Sprintf("(%d, unitext(%s, %s))", n.ID, quote(n.Name.Text), n.Name.Lang)
	}
	var probes []string
	for i, p := range probeRows(rows, 10) {
		probes = append(probes, fmt.Sprintf("(%d, unitext(%s, %s))", i, quote(p.Name.Text), p.Name.Lang))
	}
	items := tax.items[:min(5000, len(tax.items))]
	exec := execer(eng)
	err = exec(`CREATE TABLE names (id INT, name UNITEXT)`)
	if err == nil {
		err = batchInsert(exec, "names", vals)
	}
	if err == nil {
		err = exec(`CREATE TABLE probe (id INT, name UNITEXT)`)
	}
	if err == nil {
		err = batchInsert(exec, "probe", probes)
	}
	if err == nil {
		err = exec(`CREATE TABLE items (id INT, cat UNITEXT)`)
	}
	if err == nil {
		err = batchInsert(exec, "items", itemRows(items))
	}
	for _, q := range []string{`CREATE INDEX p_id ON names (id) USING BTREE`, `CREATE INDEX p_mdi ON names (name) USING MDI`, `ANALYZE`} {
		if err == nil {
			err = exec(q)
		}
	}
	if err != nil {
		_ = eng.Close()
		return nil, err
	}
	return eng, nil
}

// execProbe fills the exec.*_self_ms buckets the workload's replay never
// ran (a join on lookup, an Ω filter on psi-join, ...) from EXPLAIN ANALYZE
// of a Ψ scan, an Ω count and a small Ψ join on the probe engine, so every
// figure is a measured operator time.
func (m metrics) execProbe(r *run, tax *inputs, eng *mural.Engine) error {
	stmts := []string{
		fmt.Sprintf("SELECT id FROM names WHERE name LEXEQUAL %s THRESHOLD 2", quote(r.in.queries[0].Name.Text)),
		fmt.Sprintf("SELECT count(*) FROM items WHERE cat SEMEQUAL %s", quote(tax.concepts[0].Lemma)),
		"SELECT count(*) FROM probe p, names n WHERE p.name LEXEQUAL n.name THRESHOLD 1",
	}
	if err := execer(eng)(`SET enable_indexscan = off`); err != nil {
		return err
	}
	total := map[string]time.Duration{}
	seen := map[string]int{}
	for rep := 0; rep < 3; rep++ {
		for _, q := range stmts {
			res, err := eng.Exec("EXPLAIN ANALYZE " + q)
			if err != nil {
				return err
			}
			in := map[string]bool{}
			for _, n := range parseAnalyze(res.Plan) {
				if b := execBucket(n); b != "" {
					total[b] += n.self
					in[b] = true
				}
			}
			for b := range in {
				seen[b]++
			}
		}
	}
	for b, d := range total {
		if m[b].Value == 0 && seen[b] > 0 {
			m.set(b, ms(d)/float64(seen[b]), "ms")
		}
	}
	return nil
}

// storageProbe fills the WAL and page-read figures a workload without
// durable writes or pool misses did not produce: single-row durable
// inserts of the workload's names into a traced on-disk engine, then a
// scan through a pool far smaller than the table after reopening it.
func (m metrics) storageProbe(r *run, tr *tracer) error {
	_, hasRead := m["storage.page_read_us"]
	_, hasWAL := m["storage.wal_fsync_ms"]
	if hasRead && hasWAL {
		return nil
	}
	dir, err := r.newDir()
	if err != nil {
		return err
	}
	sm := tr.seams()
	eng, err := mural.Open(mural.Config{Dir: dir, DiskWrap: sm.disk, WALWrap: sm.wal})
	if err != nil {
		return err
	}
	// 3000 rows (the names cycled with fresh ids): several times the
	// 8-page pool the reopened engine scans them through.
	vals := make([]string, 3000)
	for i := range vals {
		n := r.in.names[i%len(r.in.names)]
		vals[i] = fmt.Sprintf("(%d, unitext(%s, %s), 0)", i, quote(n.Name.Text), n.Name.Lang)
	}
	err = execer(eng)(`CREATE TABLE names (id INT, name UNITEXT, pdist INT)`)
	if err == nil {
		err = batchInsert(execer(eng), "names", vals[64:])
	}
	mark := tr.mark()
	w0 := eng.WALStats()
	for _, v := range vals[:min(64, len(vals))] {
		if err == nil {
			err = execer(eng)("INSERT INTO names VALUES " + v)
		}
	}
	w := eng.WALStats()
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	single := float64(min(64, len(vals)))
	if !hasWAL {
		n, d, _ := tr.sum("storage.wal_fsync", mark)
		_, _, wb := tr.sum("storage.wal_write", mark)
		_, _, db := tr.sum("storage.write_page", mark)
		m.set("storage.wal_fsync_ms", ms(d)/float64(max(n, 1)), "ms")
		m.set("storage.wal_syncs_per_commit", float64(w.Syncs-w0.Syncs)/float64(max(w.Commits-w0.Commits, 1)), "ratio")
		m.set("storage.wal_bytes_per_row", float64(wb)/single, "B")
		m.set("storage.data_bytes_per_row", float64(db)/single, "B")
	}
	if !hasRead {
		eng, err := mural.Open(mural.Config{Dir: dir, BufferPages: 8, DiskWrap: sm.disk, WALWrap: sm.wal})
		if err != nil {
			return err
		}
		mark = tr.mark()
		_, err = eng.Exec(`SELECT count(*) FROM names WHERE pdist = 1`)
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		n, d, _ := tr.sum("storage.read_page", mark)
		m.set("storage.page_read_us", us(d)/float64(max(n, 1)), "us")
	}
	return nil
}

// shardFigures measures the coordinator layers: from the workload's own
// replay when it is sharded, otherwise from a traced replay of its Ψ mix
// against a 2-shard cluster loaded with its first names.
func (m metrics) shardFigures(r *run, reps []replayed, tr *tracer, replayEnd int) error {
	mark, end := 0, replayEnd
	if r.w.name != "sharded-lookup" {
		sz := sizes{Names: min(3000, len(r.in.names)), Queries: min(40, len(r.in.queries))}
		r2 := &run{w: findWorkload("sharded-lookup"), seed: r.seed, short: true, work: r.work, sz: sz}
		r2.in = generate(r.seed, sz)
		r2.orc = newOracle(r2.in)
		sm := tr.seams()
		c, err := setupSharded(r2, sm)
		if err != nil {
			if c != nil {
				_ = c.Close()
			}
			return err
		}
		mark = tr.mark()
		reps, err = replay(r2, c, tr, sm)
		end = tr.mark()
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	dials, _, _ := tr.sumRange("shard.dial", mark, end)
	m.set("shard.dials_per_op", float64(dials)/float64(max(len(reps), 1)), "count")
	var self, skew []float64
	for _, rp := range reps {
		var ts []float64
		for _, n := range rp.nodes {
			if n.name == "Remote" {
				ts = append(ts, ms(n.self))
			}
		}
		if len(ts) > 0 && mean(ts) > 0 {
			self = append(self, mean(ts))
			mx := ts[0]
			for _, t := range ts {
				mx = max(mx, t)
			}
			skew = append(skew, mx/mean(ts))
		}
	}
	m.set("shard.remote_self_ms", mean(self), "ms")
	m.set("shard.skew", mean(skew), "ratio")
	tr.mu.Lock()
	frags := tr.frags
	tr.mu.Unlock()
	var codec []float64
	for _, f := range frags {
		t0 := time.Now()
		n, err := plan.DecodeFragment(f)
		if err != nil {
			return err
		}
		if _, err := plan.EncodeFragment(n); err != nil {
			return err
		}
		codec = append(codec, us(time.Since(t0)))
	}
	m.set("shard.fragment_codec_us", median(codec), "us")
	return nil
}

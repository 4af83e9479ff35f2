package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/mural-db/mural/internal/bench"
	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/server"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/mural"
)

// seams are the engine's and client's existing wrap points; the traced run
// fills them, the untraced run leaves them nil.
type seams struct {
	tracer exec.Tracer
	disk   func(name string, d storage.Disk) storage.Disk
	wal    func(f storage.LogFile) storage.LogFile
	shard  func(net.Conn) net.Conn
	conn   func(net.Conn) net.Conn
}

// instance is one set-up workload: the engine(s) behind a wire server and
// the per-session statement mixes.
type instance struct {
	addr  string
	eng   *mural.Engine // receives the statements (the coordinator when sharded)
	data  *mural.Engine // holds the names rows (shard 0 when sharded)
	mixes []mixer
	// record describes the instance for the run record.
	record map[string]any
	dir    string
	srv    *server.Server
	closer func() error
	// inserted holds the ingest rows written before the measured window
	// (by the traced replay); they count as acknowledged from the start.
	inserted map[int]bool
}

// Close stops the server and engines and removes on-disk state.
func (it *instance) Close() error {
	var err error
	if it.srv != nil {
		err = it.srv.Close()
	}
	if it.closer != nil {
		if cerr := it.closer(); err == nil {
			err = cerr
		}
	}
	if it.dir != "" {
		if rerr := os.RemoveAll(it.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// workload is one named traffic mix of the benchmark; README.md gives the
// reason for each. No workload drives more than two sessions, one per CPU
// of the machines it was sized on.
type workload struct {
	name  string
	sizes func(short bool) sizes
	// tail is the percentile cpu_tail_ms reports, one with at least ten
	// samples beyond it at the run length BENCHMARK.json sets. On lookup
	// it is p90 rather than the highest such: a garbage-collection cycle
	// charges ~10 ms of CPU to the statement in flight, about one lookup
	// statement in twenty carries one, and a p95 or p98 falls among those.
	tail  float64
	setup func(r *run, s seams) (*instance, error)
	// primary are the operation classes the end-to-end op_* metrics
	// describe; the latency metrics are geometric means over them.
	primary []opClass
	// check verifies every outcome of a measured window against the oracle
	// (and, for ingest, the reopen check); it returns the first failure.
	check func(r *run, it *instance, outs []outcome) error
}

var workloads = []*workload{
	{
		name: "lookup",
		sizes: func(short bool) sizes {
			if short {
				return sizes{Names: 600, Items: 600, Synsets: 2000, Queries: 40, Concepts: 20}
			}
			return sizes{Names: 25000, Items: 25000, Synsets: 20000, Queries: 500, Concepts: 200}
		},
		tail:    0.90,
		setup:   setupLookup,
		primary: []opClass{clsPsi, clsOmega},
		check:   checkSelections,
	},
	{
		name: "psi-join",
		sizes: func(short bool) sizes {
			if short {
				return sizes{Names: 400, Probes: 10, Queries: 10}
			}
			return sizes{Names: 5000, Probes: 50, Queries: 50}
		},
		tail:    0.90,
		setup:   setupJoin,
		primary: []opClass{clsJoin},
		check:   checkJoin,
	},
	{
		name: "ingest",
		sizes: func(short bool) sizes {
			if short {
				return sizes{Names: 300, Extra: 3000, Queries: 20}
			}
			return sizes{Names: 5000, Extra: 30000, Queries: 500}
		},
		tail:    0.99,
		setup:   setupIngest,
		primary: []opClass{clsInsert},
		check:   checkIngest,
	},
	{
		name: "sharded-lookup",
		sizes: func(short bool) sizes {
			if short {
				return sizes{Names: 600, Queries: 40}
			}
			return sizes{Names: 25000, Queries: 500}
		},
		tail:    0.99,
		setup:   setupSharded,
		primary: []opClass{clsPsi},
		check:   checkSelections,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// run is the state of one benchmark invocation.
type run struct {
	w      *workload
	seed   int64
	short  bool
	work   string // scratch directory inside the checkout, removed at exit
	traces string // directory the traced run writes its span file to
	sz     sizes
	in     *inputs
	orc    *oracle
	ndirs  int
}

func (r *run) newDir() (string, error) {
	r.ndirs++
	d := filepath.Join(r.work, fmt.Sprintf("db%d", r.ndirs))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// omegaShare is the fraction of lookup statements that are Ω selections.
// No published trace fixes it; it is set by a rule. cpu_p50_ms and
// cpu_tail_ms weigh the two classes equally whatever the share, so the
// share only decides how many samples each class's tail is taken from: with
// equal shares both get the same number, about 900 each in a 30 s run.
const omegaShare = 0.5

// selectMixes builds n selection sessions' mixes, each with its own seed.
func (r *run) selectMixes(n int, omega float64) []mixer {
	m := make([]mixer, n)
	for i := range m {
		m[i] = selectMix(r.in, r.seed*31+int64(i), omega)
	}
	return m
}

func execer(e *mural.Engine) func(string) error {
	return func(q string) error { _, err := e.Exec(q); return err }
}

// batchInsert sends VALUES rows 500 at a time.
func batchInsert(exec func(string) error, table string, rows []string) error {
	for i := 0; i < len(rows); i += 500 {
		j := min(i+500, len(rows))
		if err := exec("INSERT INTO " + table + " VALUES " + strings.Join(rows[i:j], ",")); err != nil {
			return err
		}
	}
	return nil
}

func serve(it *instance, eng *mural.Engine) error {
	it.srv = server.New(eng)
	addr, err := it.srv.Start("127.0.0.1:0")
	it.addr = addr
	return err
}

// warm sends the first statements of fresh copies of the session mixes
// once, sequentially, so the measured window starts with loaded caches.
func warm(it *instance, mixes []mixer, n int, s seams) error {
	conn, err := client.Dialer{Wrap: s.conn}.Dial(it.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.FetchSize = 4096
	for _, m := range mixes {
		for i := 0; i < n; i++ {
			if _, _, err := execOp(conn, m()); err != nil {
				return err
			}
		}
	}
	return nil
}

func setupLookup(r *run, s seams) (*instance, error) {
	dir, err := r.newDir()
	if err != nil {
		return nil, err
	}
	it := &instance{dir: dir}
	eng, err := mural.Open(mural.Config{Dir: dir, WordNet: r.in.net})
	if err != nil {
		return nil, err
	}
	load := func() error {
		if _, err := bench.LoadNames(execer(eng), r.in.names, 0); err != nil {
			return err
		}
		if err := execer(eng)(`CREATE TABLE items (id INT, cat UNITEXT)`); err != nil {
			return err
		}
		if err := batchInsert(execer(eng), "items", itemRows(r.in.items)); err != nil {
			return err
		}
		return execer(eng)(`ANALYZE`)
	}
	if err := load(); err != nil {
		_ = eng.Close()
		return nil, err
	}
	np, _ := eng.TablePages("names")
	ip, _ := eng.TablePages("items")
	if err := eng.Close(); err != nil {
		return nil, err
	}
	// Reopen with a pool a quarter of the tables' pages, so the working set
	// is larger than the pool and the scans miss. Intra-query parallelism
	// is off: psi-join measures Gather, and here a statement's CPU time is
	// the serial cost of the scan and filter path.
	pool := int(max((np+ip)/4, 8))
	eng, err = mural.Open(mural.Config{Dir: dir, WordNet: r.in.net, BufferPages: pool, Workers: 1, DiskWrap: s.disk, WALWrap: s.wal, Tracer: s.tracer})
	if err != nil {
		return nil, err
	}
	it.eng, it.data, it.closer = eng, eng, eng.Close
	it.record = map[string]any{"storage": "disk", "wal": true, "names_pages": np, "items_pages": ip,
		"buffer_pages": pool, "workers": 1, "flush": "fsync per commit, group commit, default checkpoint"}
	if err := serve(it, eng); err != nil {
		return it, err
	}
	// One session, so the process CPU time spent while a statement is in
	// flight is that statement's own (see outcome.cpu).
	it.mixes = r.selectMixes(1, omegaShare)
	return it, warm(it, []mixer{selectMix(r.in, r.seed*7+1, omegaShare)}, 40, s)
}

func setupJoin(r *run, s seams) (*instance, error) {
	it := &instance{}
	eng, err := mural.Open(mural.Config{Tracer: s.tracer})
	if err != nil {
		return nil, err
	}
	it.eng, it.data, it.closer = eng, eng, eng.Close
	if _, err := bench.LoadNames(execer(eng), r.in.names, r.sz.Probes); err != nil {
		return it, err
	}
	np, _ := eng.TablePages("names")
	it.record = map[string]any{"storage": "memory", "wal": false, "names_pages": np,
		"buffer_pages": 4096, "workers": "GOMAXPROCS", "flush": "none (in-memory)"}
	if err := serve(it, eng); err != nil {
		return it, err
	}
	it.mixes = []mixer{joinMix()}
	return it, warm(it, []mixer{joinMix()}, maxK, s)
}

// ingestCheckpointBytes is the WAL size that triggers a checkpoint on
// ingest. Each single-row commit logs about 48 KiB of page images (six
// 8 KiB pages: heap and indexes), so the engine's 4 MiB default would
// checkpoint every ~85 rows and put the p99 insert latency right on the
// edge between plain and checkpointing inserts; at 64 MiB it still
// checkpoints every few seconds.
const ingestCheckpointBytes = 64 << 20

func setupIngest(r *run, s seams) (*instance, error) {
	dir, err := r.newDir()
	if err != nil {
		return nil, err
	}
	it := &instance{dir: dir}
	// One writer and one reader session, one per CPU, as on lookup.
	eng, err := mural.Open(mural.Config{Dir: dir, Workers: 1, CheckpointBytes: ingestCheckpointBytes, DiskWrap: s.disk, WALWrap: s.wal, Tracer: s.tracer})
	if err != nil {
		return nil, err
	}
	it.eng, it.data, it.closer = eng, eng, eng.Close
	if _, err := bench.LoadNames(execer(eng), r.in.names, 0); err != nil {
		return it, err
	}
	for _, q := range []string{`CREATE INDEX idx_names_id ON names (id) USING BTREE`, `ANALYZE`} {
		if err := execer(eng)(q); err != nil {
			return it, err
		}
	}
	np, _ := eng.TablePages("names")
	it.record = map[string]any{"storage": "disk", "wal": true, "names_pages": np,
		"buffer_pages": 4096, "workers": 1, "flush": "fsync per commit, group commit, checkpoint every 64 MiB of WAL"}
	if err := serve(it, eng); err != nil {
		return it, err
	}
	it.mixes = []mixer{insertMix(r.in), selectMix(r.in, r.seed*31+1, 0)}
	return it, warm(it, []mixer{selectMix(r.in, r.seed*7+1, 0)}, 40, s)
}

func setupSharded(r *run, s seams) (*instance, error) {
	it := &instance{}
	c, err := bench.StartShardCluster(2, func(cfg *mural.Config) { cfg.ShardWrap, cfg.Tracer = s.shard, s.tracer })
	if err != nil {
		return nil, err
	}
	it.eng, it.data, it.closer = c.Coord, c.Procs[0].Eng, func() error { c.Close(); return nil }
	if _, err := bench.LoadNames(execer(c.Coord), r.in.names, 0); err != nil {
		return it, err
	}
	p0, _ := c.Procs[0].Eng.TablePages("names")
	p1, _ := c.Procs[1].Eng.TablePages("names")
	it.record = map[string]any{"storage": "memory", "wal": false, "shards": 2, "shard_names_pages": []int64{p0, p1},
		"buffer_pages": 4096, "flush": "none (in-memory shards)"}
	if err := serve(it, c.Coord); err != nil {
		return it, err
	}
	it.mixes = r.selectMixes(2, 0)
	return it, warm(it, []mixer{selectMix(r.in, r.seed*7+1, 0)}, 40, s)
}

// checkSelections compares every Ψ id list and Ω count with the oracle.
func checkSelections(r *run, _ *instance, outs []outcome) error {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		switch o.op.cls {
		case clsPsi:
			want := r.orc.psiIDs(r.in.queries[o.op.q], o.op.k, psiLangs[o.op.langs])
			if !equalIDs(o.ids, want) {
				return mismatch(o.op, o.ids, want)
			}
		case clsOmega:
			want := r.orc.omegaCount(r.in.concepts[o.op.c], omegaLangs[o.op.langs])
			if o.count != want {
				return mismatch(o.op, o.count, want)
			}
		}
	}
	return nil
}

func checkJoin(r *run, _ *instance, outs []outcome) error {
	probes := probeRows(r.in.names, r.sz.Probes)
	want := map[int]int64{}
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		w, ok := want[o.op.k]
		if !ok {
			w = r.orc.joinCount(probes, o.op.k)
			want[o.op.k] = w
		}
		if o.count != w {
			return mismatch(o.op, o.count, w)
		}
	}
	return nil
}

// checkIngest checks the reads taken during the writes, then closes the
// engine, reopens it from disk and requires every acknowledged row.
//
// A read that overlaps inserts may or may not see them, so its id list
// must equal the oracle's over the base rows, plus exactly a subset of the
// matching inserted rows that includes every one acknowledged before the
// read was sent and none sent after it returned.
func checkIngest(r *run, it *instance, outs []outcome) error {
	type span struct{ sent, acked time.Duration }
	ins := map[int]span{}
	for rec := range it.inserted {
		ins[rec] = span{-1, -1}
	}
	n := 0
	for _, o := range outs {
		if o.op.cls == clsInsert && o.err == nil {
			ins[o.op.rec] = span{o.start, o.end}
		}
	}
	for rec := range ins {
		n = max(n, rec+1)
	}
	// matching[q,k,langs] lists the inserted rows a Ψ read matches.
	type key struct{ q, k, langs int }
	matching := map[key][]int{}
	base := int64(len(r.in.names))
	for _, o := range outs {
		if o.op.cls != clsPsi || o.err != nil {
			continue
		}
		q, k, langs := r.in.queries[o.op.q], o.op.k, psiLangs[o.op.langs]
		kk := key{o.op.q, k, o.op.langs}
		recs, ok := matching[kk]
		if !ok {
			for rec := 0; rec < n; rec++ {
				if _, done := ins[rec]; done && psiMatch(q, r.in.extra[rec], k, langs) {
					recs = append(recs, rec)
				}
			}
			matching[kk] = recs
		}
		var got []int64
		seen := map[int]bool{}
		for _, id := range o.ids {
			if id < base {
				got = append(got, id)
			} else {
				seen[int(id-base)] = true
			}
		}
		if want := r.orc.psiIDs(q, k, langs); !equalIDs(got, want) {
			return mismatch(o.op, got, want)
		}
		for _, rec := range recs {
			s := ins[rec]
			if s.acked < o.start && !seen[rec] {
				return fmt.Errorf("wrong answer for %q: acknowledged row %d missing", o.op.sql, base+int64(rec))
			}
			if s.sent <= o.end {
				delete(seen, rec)
			}
		}
		for rec := range seen {
			return fmt.Errorf("wrong answer for %q: row %d does not match or was not inserted in time", o.op.sql, base+int64(rec))
		}
	}
	return reopenCheck(r, it, ins)
}

func reopenCheck[T any](r *run, it *instance, acked map[int]T) error {
	if it.srv != nil {
		if err := it.srv.Close(); err != nil {
			return err
		}
		it.srv = nil
	}
	if err := it.eng.Close(); err != nil {
		return err
	}
	it.closer = nil
	eng, err := mural.Open(mural.Config{Dir: it.dir})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	it.eng, it.data, it.closer = eng, eng, eng.Close
	res, err := eng.Exec(`SELECT id FROM names`)
	if err != nil {
		return err
	}
	got := make([]int64, 0, len(res.Rows))
	for _, row := range res.Rows {
		got = append(got, row[0].Int())
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	want := make([]int64, 0, len(r.in.names)+len(acked))
	for i := range r.in.names {
		want = append(want, int64(i))
	}
	recs := make([]int, 0, len(acked))
	for rec := range acked {
		recs = append(recs, rec)
	}
	sort.Ints(recs)
	for _, rec := range recs {
		want = append(want, int64(len(r.in.names)+rec))
	}
	if !equalIDs(got, want) {
		return fmt.Errorf("reopen: %d rows readable, want the %d loaded and acknowledged", len(got), len(want))
	}
	return nil
}

package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/leakcheck"
	"github.com/mural-db/mural/internal/netfault"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/mural"
)

// fastRetry keeps dead-shard tests quick: two attempts, millisecond backoff.
func fastRetry(cfg *mural.Config) {
	cfg.ShardRetry = client.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// rowsKey renders a result set as a sorted multiset for order-insensitive
// comparison.
func rowsKey(rows []types.Tuple) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func mustExecAll(t *testing.T, eng *mural.Engine, qs ...string) {
	t.Helper()
	for _, q := range qs {
		if _, err := eng.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// newParityPair builds a 2-shard cluster and a single-node engine loaded
// with the same names dataset through the same SQL.
func newParityPair(t *testing.T, names int) (*ShardCluster, *mural.Engine) {
	t.Helper()
	recs := dataset.GenerateNames(dataset.NamesConfig{Records: names, Seed: 7})

	cluster, err := StartShardCluster(2, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	if _, err := LoadNames(func(q string) error { _, err := cluster.Coord.Exec(q); return err }, recs, 20); err != nil {
		t.Fatal(err)
	}

	single, err := mural.Open(mural.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	if _, err := LoadNames(func(q string) error { _, err := single.Exec(q); return err }, recs, 20); err != nil {
		t.Fatal(err)
	}
	return cluster, single
}

// TestShardParity asserts a sharded cluster computes bit-identical answers
// to a single node on the Table 4 workload shapes: Ψ scans, aggregates with
// grouping, ordered row queries and the Ψ join.
func TestShardParity(t *testing.T) {
	cluster, single := newParityPair(t, 600)

	probe := "SELECT text(name) FROM names WHERE id < 5 ORDER BY id"
	queries := []string{
		probe,
		`SELECT count(*) FROM names`,
		`SELECT count(*), min(id), max(id), sum(pdist) FROM names`,
		`SELECT lang(name), count(*) FROM names GROUP BY lang(name)`,
		`SELECT id, text(name) FROM names WHERE pdist < 4 ORDER BY id LIMIT 17`,
		`SELECT count(*) FROM probe p, names n WHERE p.name LEXEQUAL n.name THRESHOLD 2`,
	}
	// Ψ scans over real query names.
	res, err := single.Exec(probe)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		queries = append(queries, fmt.Sprintf(
			`SELECT count(*) FROM names WHERE name LEXEQUAL %s THRESHOLD 2`, quote(r[0].Text())))
		queries = append(queries, fmt.Sprintf(
			`SELECT id, text(name), lang(name) FROM names WHERE name LEXEQUAL %s THRESHOLD 3`, quote(r[0].Text())))
	}

	for _, q := range queries {
		want, err := single.Exec(q)
		if err != nil {
			t.Fatalf("single %s: %v", q, err)
		}
		got, err := cluster.Coord.Exec(q)
		if err != nil {
			t.Fatalf("sharded %s: %v", q, err)
		}
		w, g := rowsKey(want.Rows), rowsKey(got.Rows)
		if len(w) != len(g) {
			t.Fatalf("%s: single %d rows, sharded %d rows", q, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s: row %d differs:\n single: %s\nsharded: %s", q, i, w[i], g[i])
			}
		}
	}
}

// TestShardDMLParity asserts routed INSERT and broadcast DELETE keep the
// cluster's answers identical to a single node's.
func TestShardDMLParity(t *testing.T) {
	cluster, single := newParityPair(t, 200)

	stmts := []string{
		`INSERT INTO names VALUES (9001, unitext('Nehru', english), 3), (9002, unitext('Nehrou', hindi), 4)`,
		`DELETE FROM names WHERE pdist > 6`,
		`DELETE FROM names WHERE name LEXEQUAL unitext('Nehru', english) THRESHOLD 1`,
	}
	for _, s := range stmts {
		wres, err := single.Exec(s)
		if err != nil {
			t.Fatalf("single %s: %v", s, err)
		}
		gres, err := cluster.Coord.Exec(s)
		if err != nil {
			t.Fatalf("sharded %s: %v", s, err)
		}
		if wres.RowsAffected != gres.RowsAffected {
			t.Fatalf("%s: single affected %d, sharded %d", s, wres.RowsAffected, gres.RowsAffected)
		}
		q := `SELECT id, text(name), pdist FROM names`
		want, err := single.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.Coord.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		w, g := rowsKey(want.Rows), rowsKey(got.Rows)
		if strings.Join(w, "\n") != strings.Join(g, "\n") {
			t.Fatalf("after %s: tables diverge (single %d rows, sharded %d rows)", s, len(w), len(g))
		}
	}
}

// TestShardExplainAnalyze asserts the coordinator's EXPLAIN ANALYZE shows
// the Remote fragments with per-shard actual row counts.
func TestShardExplainAnalyze(t *testing.T) {
	cluster, err := StartShardCluster(2, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	mustExecAll(t, cluster.Coord,
		`CREATE TABLE t (id INT, name UNITEXT)`,
		`INSERT INTO t VALUES (1, unitext('Nehru', english)), (2, unitext('Gandhi', english)), (3, unitext('Patel', english)), (4, unitext('Bose', english))`,
	)
	res, err := cluster.Coord.Exec(`EXPLAIN ANALYZE SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, r := range res.Rows {
		out.WriteString(r[0].Text())
		out.WriteByte('\n')
	}
	text := out.String()
	if !strings.Contains(text, "Gather") {
		t.Errorf("plan lacks Gather:\n%s", text)
	}
	for shard := 0; shard < 2; shard++ {
		if !strings.Contains(text, fmt.Sprintf("shard=%d", shard)) {
			t.Errorf("plan lacks Remote fragment for shard %d:\n%s", shard, text)
		}
	}
	if !strings.Contains(text, "actual rows=") {
		t.Errorf("EXPLAIN ANALYZE lacks actual row counts:\n%s", text)
	}
}

// TestShardDeadShard asserts a query against a cluster with a killed shard
// fails with the typed ErrShardUnavailable within the retry budget — never
// hangs, never reports a silent partial answer.
func TestShardDeadShard(t *testing.T) {
	leakcheck.Check(t)
	cluster, err := StartShardCluster(2, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	mustExecAll(t, cluster.Coord,
		`CREATE TABLE t (id INT)`,
		`INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8)`,
	)
	cluster.Kill(1)

	done := make(chan error, 1)
	go func() {
		_, err := cluster.Coord.Exec(`SELECT count(*) FROM t`)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, mural.ErrShardUnavailable) {
			t.Fatalf("query against dead shard: got %v, want ErrShardUnavailable", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query against dead shard hung")
	}

	// DML must fail the same way. (A wide batch: FNV routing is effectively
	// random, so enough rows guarantees the dead shard is addressed.)
	var ins []string
	for i := 100; i < 140; i++ {
		ins = append(ins, fmt.Sprintf("(%d)", i))
	}
	if _, err := cluster.Coord.Exec(`INSERT INTO t VALUES ` + strings.Join(ins, ",")); !errors.Is(err, mural.ErrShardUnavailable) {
		t.Fatalf("insert against dead shard: got %v, want ErrShardUnavailable", err)
	}
}

// TestShardResetMidStream injects connection resets into the shard links
// and asserts the coordinator surfaces ErrShardUnavailable rather than
// wedging, and that a clean query works again once the faults stop.
func TestShardResetMidStream(t *testing.T) {
	leakcheck.Check(t)
	inj := netfault.New(netfault.Config{Seed: 42, Reset: 1})
	inj.SetEnabled(false)
	cluster, err := StartShardCluster(2, func(cfg *mural.Config) {
		fastRetry(cfg)
		cfg.ShardWrap = func(c net.Conn) net.Conn { return inj.Wrap(c) }
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	mustExecAll(t, cluster.Coord, `CREATE TABLE t (id INT)`)
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	mustExecAll(t, cluster.Coord, `INSERT INTO t VALUES `+strings.Join(vals, ","))

	inj.SetEnabled(true)
	_, err = cluster.Coord.Exec(`SELECT count(*) FROM t`)
	if !errors.Is(err, mural.ErrShardUnavailable) {
		t.Fatalf("query under resets: got %v, want ErrShardUnavailable", err)
	}
	inj.SetEnabled(false)

	res, err := cluster.Coord.Exec(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatalf("clean query after fault storm: %v", err)
	}
	if n := res.Rows[0][0].Int(); n != 2000 {
		t.Fatalf("count after recovery = %d, want 2000", n)
	}
}

// TestShardStallBounded asserts a stalled shard link is bounded by the
// configured per-operation timeout instead of hanging the coordinator.
func TestShardStallBounded(t *testing.T) {
	leakcheck.Check(t)
	inj := netfault.New(netfault.Config{Seed: 7, Stall: 1, StallFor: 300 * time.Millisecond})
	inj.SetEnabled(false)
	cluster, err := StartShardCluster(2, func(cfg *mural.Config) {
		fastRetry(cfg)
		cfg.ShardOpTimeout = 50 * time.Millisecond
		cfg.ShardWrap = func(c net.Conn) net.Conn { return inj.Wrap(c) }
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	mustExecAll(t, cluster.Coord,
		`CREATE TABLE t (id INT)`,
		`INSERT INTO t VALUES (1), (2), (3), (4)`,
	)
	inj.SetEnabled(true)
	start := time.Now()
	_, err = cluster.Coord.Exec(`SELECT count(*) FROM t`)
	elapsed := time.Since(start)
	if !errors.Is(err, mural.ErrShardUnavailable) {
		t.Fatalf("query under stalls: got %v, want ErrShardUnavailable", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("stalled query took %v; per-op timeout did not bound it", elapsed)
	}
}

// TestShardCancelMidStream cancels a coordinator query while shard batches
// are still streaming and asserts the typed error and no goroutine leaks
// (the cancel watcher and Gather workers must all wind down).
func TestShardCancelMidStream(t *testing.T) {
	leakcheck.Check(t)
	cluster, err := StartShardCluster(2, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	mustExecAll(t, cluster.Coord, `CREATE TABLE t (id INT)`)
	var vals []string
	for i := 0; i < 5000; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	mustExecAll(t, cluster.Coord, `INSERT INTO t VALUES `+strings.Join(vals, ","))

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := cluster.Coord.QueryContext(ctx, `SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	var lastErr error
	for {
		_, ok, err := rows.Next()
		if err != nil {
			lastErr = err
			break
		}
		if !ok {
			break
		}
		if streamed++; streamed == 100 {
			cancel()
		}
	}
	_ = rows.Close()
	cancel()
	if lastErr == nil {
		t.Fatalf("streamed %d rows to EOF despite cancellation", streamed)
	}
	if !errors.Is(lastErr, mural.ErrCanceled) {
		t.Fatalf("cancel mid-stream: got %v, want ErrCanceled", lastErr)
	}
}

// TestShardDeadlineForwarded asserts a coordinator deadline travels with the
// fragment and surfaces as the typed timeout.
func TestShardDeadlineForwarded(t *testing.T) {
	leakcheck.Check(t)
	cluster, err := StartShardCluster(2, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	mustExecAll(t, cluster.Coord, `CREATE TABLE t (id INT)`)
	var vals []string
	for i := 0; i < 5000; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	mustExecAll(t, cluster.Coord, `INSERT INTO t VALUES `+strings.Join(vals, ","))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rows, qerr := cluster.Coord.QueryContext(ctx, `SELECT id FROM t`)
	if qerr == nil {
		// Consume slowly so the deadline always fires mid-stream.
		for {
			_, ok, err := rows.Next()
			if err != nil {
				qerr = err
				break
			}
			if !ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
		_ = rows.Close()
	}
	if qerr == nil {
		t.Fatal("streamed to EOF despite a deadline shorter than the stream")
	}
	if !errors.Is(qerr, mural.ErrQueryTimeout) && !errors.Is(qerr, mural.ErrCanceled) {
		t.Fatalf("deadline: got %v, want ErrQueryTimeout/ErrCanceled", qerr)
	}
}

// TestFloatSumOrderIndependent asserts SUM and AVG over FLOAT are
// bit-identical for every worker count and shard count. Rows reach the
// aggregate in Gather arrival and morsel-claim order, and shard streams
// merge in arrival order, so only an order-independent sum can agree.
func TestFloatSumOrderIndependent(t *testing.T) {
	// Ones beside a few 2^53 values: a one added to a running sum that
	// holds 2^53 rounds away (ties to even), so each summation order, and
	// each rounded per-shard partial, loses a different number of them.
	var rows []string
	for i := 0; i < 3000; i++ {
		v := 1.0
		if i%1000 == 0 {
			v = 1 << 53
		}
		rows = append(rows, fmt.Sprintf("(%d, %d, %.1f)", i, i%7, v))
	}
	queries := []string{
		`SELECT sum(val), avg(val) FROM f`,
		`SELECT grp, sum(val), avg(val) FROM f GROUP BY grp`,
	}
	for n := 500; n <= 3000; n += 250 {
		queries = append(queries, fmt.Sprintf(`SELECT count(*), sum(val) FROM f WHERE id < %d`, n))
	}
	answers := func(eng *mural.Engine) [][]string {
		var out [][]string
		for _, q := range queries {
			res, err := eng.Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			var keys []string
			for _, r := range res.Rows {
				var parts []string
				for _, v := range r {
					if v.Kind() == types.KindFloat {
						parts = append(parts, fmt.Sprintf("%#x", math.Float64bits(v.Float())))
					} else {
						parts = append(parts, v.String())
					}
				}
				keys = append(keys, strings.Join(parts, "|"))
			}
			sort.Strings(keys)
			out = append(out, keys)
		}
		return out
	}
	var want [][]string
	var shardEngs []*mural.Engine
	for _, shards := range []int{0, 2} {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			shardEngs = nil
			eng := func() *mural.Engine {
				if shards == 0 {
					eng, err := mural.Open(mural.Config{})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { eng.Close() })
					return eng
				}
				cluster, err := StartShardCluster(shards, fastRetry)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cluster.Close)
				for _, p := range cluster.Procs {
					shardEngs = append(shardEngs, p.Eng)
				}
				return cluster.Coord
			}()
			mustExecAll(t, eng, `CREATE TABLE f (id INT, grp INT, val FLOAT)`)
			if err := batchInsert("f", rows, func(q string) error { _, err := eng.Exec(q); return err }); err != nil {
				t.Fatal(err)
			}
			// Fresh statistics let the planner see the table is large enough
			// for a Gather, on every node that plans.
			for _, e := range append([]*mural.Engine{eng}, shardEngs...) {
				mustExecAll(t, e, `ANALYZE`, fmt.Sprintf(`SET workers = %d`, workers))
			}
			if workers > 1 || shards > 0 {
				if res := mustExplain(t, eng, queries[0]); !strings.Contains(res, "Gather") {
					t.Fatalf("%s: want a Gather so arrival order varies:\n%s", name, res)
				}
			}
			got := answers(eng)
			if want == nil {
				want = got
				continue
			}
			for i, q := range queries {
				if strings.Join(got[i], ";") != strings.Join(want[i], ";") {
					t.Errorf("%s: %s\n got: %v\nwant: %v", name, q, got[i], want[i])
				}
			}
		}
	}
}

// mustExplain returns the plan text of q.
func mustExplain(t *testing.T, eng *mural.Engine, q string) string {
	t.Helper()
	res, err := eng.Exec("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

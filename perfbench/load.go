package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/mural-db/mural/internal/client"
)

// opClass is the kind of statement an operation sends.
type opClass int

const (
	clsPsi    opClass = iota // Ψ selection returning an id list
	clsOmega                 // Ω selection returning a count
	clsJoin                  // Ψ join returning a count
	clsInsert                // single-row durable INSERT
)

func (c opClass) String() string {
	return [...]string{"psi", "omega", "join", "insert"}[c]
}

// op is one generated statement plus what the oracle needs to check it.
type op struct {
	cls   opClass
	sql   string
	q     int // index into inputs.queries (Ψ)
	k     int // threshold (Ψ, join)
	langs int // index into psiLangs / omegaLangs
	c     int // index into inputs.concepts (Ω)
	rec   int // index into inputs.extra (insert)
}

// mixer yields a session's next statement; each session owns one.
type mixer func() *op

// The popularity of query names and concepts is Zipf(s, v): P(rank i) is
// proportional to (v+i)^-s. The paper publishes no query trace, so s and v
// are an assumption, not a measurement: a skew near 1 is the usual model
// of query popularity, and the offset v keeps any one statement from
// dominating a run while repeats still warm the caches and the tail misses
// them (the traced pass reports the resulting hit ratios).
const zipfS, zipfV = 1.1, 10

// selectMix draws Ψ and Ω selections from seeded Zipf distributions over
// the query names and concepts, so a few statements repeat often (and warm
// the G2P, plan and closure caches) while a long tail misses them.
func selectMix(in *inputs, seed int64, omegaShare float64) mixer {
	rng := rand.New(rand.NewSource(seed))
	zq := rand.NewZipf(rng, zipfS, zipfV, uint64(len(in.queries)-1))
	var zc *rand.Zipf
	if len(in.concepts) > 1 {
		zc = rand.NewZipf(rng, zipfS, zipfV, uint64(len(in.concepts)-1))
	}
	return func() *op {
		if zc != nil && rng.Float64() < omegaShare {
			o := &op{cls: clsOmega, c: int(zc.Uint64()), langs: rng.Intn(len(omegaLangs))}
			o.sql = fmt.Sprintf("SELECT count(*) FROM items WHERE cat SEMEQUAL %s IN %s",
				quote(in.concepts[o.c].Lemma), langList(omegaLangs[o.langs]))
			return o
		}
		o := &op{cls: clsPsi, q: int(zq.Uint64()), k: 1 + rng.Intn(maxK), langs: rng.Intn(len(psiLangs))}
		o.sql = fmt.Sprintf("SELECT id FROM names WHERE name LEXEQUAL %s THRESHOLD %d",
			quote(in.queries[o.q].Name.Text), o.k)
		if ls := psiLangs[o.langs]; len(ls) > 0 {
			o.sql += " IN " + langList(ls)
		}
		return o
	}
}

// joinMix cycles the Table 4 Ψ join through k = 1, 2, 3.
func joinMix() mixer {
	i := 0
	return func() *op {
		k := 1 + i%maxK
		i++
		return &op{cls: clsJoin, k: k, sql: fmt.Sprintf(
			"SELECT count(*) FROM probe p, names n WHERE p.name LEXEQUAL n.name THRESHOLD %d", k)}
	}
}

// insertMix sends the fresh rows of inputs.extra in order.
func insertMix(in *inputs) mixer {
	i := 0
	return func() *op {
		if i >= len(in.extra) {
			return nil
		}
		o := &op{cls: clsInsert, rec: i, sql: insertSQL(in.extra[i])}
		i++
		return o
	}
}

// outcome is one completed statement: its answer and when it ran,
// relative to the start of the measured window.
type outcome struct {
	op         *op
	session    int
	ids        []int64
	count      int64
	start, end time.Duration
	// cpu is the process CPU time spent while the statement was in flight,
	// divided by the number of sessions: exact with one session, an
	// equal-share estimate with two.
	cpu time.Duration
	err error
}

// execOp sends one statement over the wire and reads its whole answer.
func execOp(conn *client.Conn, o *op) (ids []int64, count int64, err error) {
	if o.cls == clsInsert {
		n, err := conn.Exec(o.sql)
		if err == nil && n != 1 {
			err = fmt.Errorf("insert reported %d rows", n)
		}
		return nil, n, err
	}
	cur, err := conn.Query(o.sql)
	if err != nil {
		return nil, 0, err
	}
	rows, err := cur.All()
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	if o.cls == clsPsi {
		ids = make([]int64, len(rows))
		for i, r := range rows {
			ids[i] = r[0].Int()
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return ids, int64(len(ids)), nil
	}
	if len(rows) != 1 {
		return nil, 0, fmt.Errorf("count returned %d rows", len(rows))
	}
	return nil, rows[0][0].Int(), nil
}

// closedLoop runs one wire session per mixer until the window closes: each
// session sends its next statement only after the previous one returned.
// It returns every outcome and the window's length. The traced run passes
// a toggler to observe each statement; the untraced run passes nil.
func closedLoop(addr string, dial client.Dialer, mixes []mixer, window time.Duration, lat *latencies, h *toggler) ([]outcome, time.Duration, error) {
	conns := make([]*client.Conn, len(mixes))
	for i := range mixes {
		c, err := dial.Dial(addr)
		if err != nil {
			for _, o := range conns[:i] {
				_ = o.Close()
			}
			return nil, 0, fmt.Errorf("dial session %d: %w", i, err)
		}
		c.FetchSize = 4096
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := range mixes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var local []outcome
			for time.Now().Before(deadline) {
				o := mixes[i]()
				if o == nil {
					break
				}
				var id uint64
				if h != nil {
					id = h.opStart()
				}
				c0 := processCPU()
				t0 := time.Now()
				ids, n, err := execOp(conns[i], o)
				t1 := time.Now()
				cpu := (processCPU() - c0) / time.Duration(len(mixes))
				if h != nil {
					h.opEnd(id, o, t1.Sub(t0), err)
				}
				if err != nil {
					lat.fail(o.cls)
				} else {
					lat.add(o.cls, t1.Sub(t0))
				}
				local = append(local, outcome{op: o, session: i, ids: ids, count: n, start: t0.Sub(start), end: t1.Sub(start), cpu: cpu, err: err})
			}
			mu.Lock()
			outs = append(outs, local...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return outs, time.Since(start), nil
}

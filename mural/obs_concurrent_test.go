package mural

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/leakcheck"
)

// TestConcurrentObservation drives one statement shape from many goroutines
// through every observation path at once — statement-statistics aggregation,
// slow-statement export, feedback folding on governed runs, and trace
// collection from morsel-parallel Gather workers — and checks nothing is
// lost or leaked. Run under -race this is the concurrency proof for the
// observability layer.
func TestConcurrentObservation(t *testing.T) {
	leakcheck.Check(t)
	// A plain buffer is safe as the sink: TraceWriter's mutex serializes
	// span writes.
	var traces bytes.Buffer
	e, err := Open(Config{
		Workers:            4,
		SlowQueryThreshold: time.Nanosecond,
		TraceSink:          &traces,
		TraceSampleRate:    0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadNames(t, e, 200)
	// Governed session: peak-memory accounting and feedback folding are on.
	e.MustExec(`SET statement_timeout = 600000`)
	if ex := e.MustExec(`EXPLAIN ` + psiNamesQuery); !strings.Contains(ex.Plan, "Gather") {
		t.Fatalf("workload must run under a Gather to exercise parallel collection:\n%s", ex.Plan)
	}

	const goroutines, perG = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := e.Exec(psiNamesQuery); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every call must be aggregated under the one fingerprint.
	var callsSeen int64
	for _, r := range showStmts(t, e) {
		if strings.HasPrefix(r[0].Text(), "select id from names") {
			callsSeen = r[1].Int()
		}
	}
	if want := int64(goroutines * perG); callsSeen != want {
		t.Errorf("aggregated calls = %d, want %d", callsSeen, want)
	}

	// Every statement is slow (threshold 1ns): each exports its root span,
	// and every exported line must be valid JSON.
	slow := 0
	for _, sp := range querySpans(t, traces.String()) {
		if sp.Name == psiNamesQuery {
			slow++
		}
	}
	if slow != goroutines*perG {
		t.Errorf("slow root spans = %d, want %d", slow, goroutines*perG)
	}

	// The sampler ran a quarter of the statements with span collection on;
	// those export their operator spans too.
	if !strings.Contains(traces.String(), `"kind":"operator"`) {
		t.Fatal("no operator spans exported at sample rate 0.25 over 160 statements")
	}
}

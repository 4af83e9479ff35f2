package main

import (
	"fmt"
	"runtime"

	"github.com/mural-db/mural/internal/bench"
)

// runShardExp measures the sharded Ψ scan at 1/2/4 local shard processes
// and prints the speedup table. Local shards share one box, so a 1-core
// machine legitimately shows ~1x.
func runShardExp(names int, seed int64) error {
	fmt.Printf("Sharded Ψ scan — %d names over 1/2/4 local shard processes (%d cores)\n\n",
		names, runtime.NumCPU())
	rows, err := bench.RunShard(bench.ShardConfig{Names: names, Threshold: 3, Queries: 5, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %10s %10s\n", "shards", "mean (ms)", "speedup", "matches")
	for _, r := range rows {
		fmt.Printf("%-8d %12.2f %9.2fx %10d\n", r.Shards, r.MeanMillis, r.Speedup, r.Matches)
	}
	fmt.Println("\nidentical answers across all shard counts: yes (asserted per run)")
	return nil
}

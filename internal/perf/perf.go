// Package perf defines the repository's standard simulator-throughput
// basket: the §2.1 HEUR evaluation of the flagship heterogeneous
// configuration across one workload per type (ILP, MEM, MIX).
// cmd/experiments -perf and -sampled, BenchmarkEvaluateHEUR in
// bench_test.go and the perfbench module all measure exactly this basket,
// so their numbers track the same quantity.
package perf

const (
	BasketConfig = "2M4+2M2"
	BasketBudget = 8_000
	BasketWarmup = 2_000
)

// BasketWorkloads lists the basket's workloads (ILP, MEM, MIX).
func BasketWorkloads() []string { return []string{"2W1", "2W4", "2W7"} }

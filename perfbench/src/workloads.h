// The three workloads. Each runs Rounds(opt) rounds: build the node(s) and
// load them (timed: setup_s), warm up and measure through DriveWindow, then
// check the data and the node(s); everything lands in one WindowResult.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

// 1 node, 2 workers, 2 clients: YCSB-B (95% Get, 5% in-place Put), Zipf
// 0.99 over a shared, fully loaded key space.
void RunKvReadZipf(const Options& opt, WindowResult* out);

// 1 node, 2 workers, 1 client: its live set swings between 16,384 and
// 8,192 keys (Put fresh keys, Del random live keys), every other op a Get
// of a live key, with compaction off; in the second half of each window
// the client only Gets while background compaction runs.
void RunKvChurn(const Options& opt, WindowResult* out);

// A probe, not one of BENCHMARK.json's workloads: 2 clients on disjoint
// key ranges swing the same live set while compaction runs the whole
// round, with the index 40% full at the peak. It shows the known defects
// in layers.json as failed ops, whose count varies from run to run.
void RunKvChurnOverlap(const Options& opt, WindowResult* out);

// 3-node cluster, 1 worker each, 1 client: replicated Write/Read 50/50,
// uniform over the objects, replication factor 2.
void RunReplRw(const Options& opt, WindowResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// Mini aggregation for the --audit fixture tree: every shard counter is
// summed into the snapshot with the `out.N += s.N` shape the audit keys on,
// and the one gauge is read with `out.N = ...`.
#include "corm_node.h"

uint64_t RetiredFrames();

NodeStats Stats(const NodeStatShard* shards, int n) {
  NodeStats out;
  for (int i = 0; i < n; ++i) {
    const NodeStatShard& s = shards[i];
    out.rpc_reads += s.rpc_reads.Load();
    out.rpc_writes += s.rpc_writes.Load();
  }
  out.frames_retired = RetiredFrames();
  return out;
}

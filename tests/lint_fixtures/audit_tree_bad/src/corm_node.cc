// Mini aggregation for the failing --audit fixture tree: rpc_writes is
// dropped on the floor, the regression the audit exists to catch.
#include "corm_node.h"

uint64_t RetiredFrames();

NodeStats Stats(const NodeStatShard* shards, int n) {
  NodeStats out;
  for (int i = 0; i < n; ++i) {
    const NodeStatShard& s = shards[i];
    out.rpc_reads += s.rpc_reads.Load();
  }
  out.frames_retired = RetiredFrames();
  return out;
}

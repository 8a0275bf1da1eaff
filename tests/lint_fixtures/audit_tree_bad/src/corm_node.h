// Mini node stats for the failing --audit fixture tree: rpc_writes has no
// snapshot mirror, frames_retired is a gauge the schema omits, and
// stale_field is neither a counter nor read by stats().
#pragma once

#include <cstdint>

struct StatCounter {
  void Add(uint64_t d);
  uint64_t Load() const;
};

struct NodeStatShard {
  StatCounter rpc_reads;
  StatCounter rpc_writes;
};

struct NodeStats {
  uint64_t rpc_reads = 0;
  uint64_t frames_retired = 0;
  uint64_t stale_field = 0;
};

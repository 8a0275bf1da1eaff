// Mini node stats for the --audit fixture tree.
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
  uint64_t rpc_writes = 0;
  uint64_t frames_retired = 0;  // a gauge, read straight into the snapshot
};

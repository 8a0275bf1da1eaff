// dsm_cluster: a 4-node distributed shared memory with per-node CoRM
// compaction and primary-backup replication (the paper's deployment
// setting plus its §3.2.4 future-work direction).
//
//   $ ./examples/dsm_cluster

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/object_layout.h"
#include "dsm/cluster.h"
#include "dsm/dsm_context.h"
#include "dsm/replication.h"

using namespace corm;
using namespace corm::dsm;
using core::GlobalAddr;

int main() {
  sim::SetSimTimeScale(0.0);
  ClusterConfig config;
  config.num_nodes = 4;
  config.node_config.num_workers = 2;
  Cluster cluster(config);
  DsmContext ctx(&cluster);

  std::printf("== 1. one shared memory across %d CoRM nodes ==\n",
              cluster.num_nodes());
  std::vector<GlobalAddr> addrs;
  std::vector<uint8_t> buf(120);
  for (int i = 0; i < 4000; ++i) {
    auto addr = ctx.Alloc(120);
    if (!addr.ok()) return 1;
    core::PatternFill(i, buf.data(), 120);
    ctx.Write(&*addr, buf.data(), 120).ok();
    addrs.push_back(*addr);
  }
  std::printf("allocated 4000 objects; cluster active memory: %s\n",
              FormatBytes(cluster.TotalActiveMemoryBytes()).c_str());

  std::printf("\n== 2. fragmentation + cluster-wide compaction ==\n");
  Rng rng(9);
  std::vector<GlobalAddr> survivors;
  std::vector<int> idx;
  for (size_t i = 0; i < addrs.size(); ++i) {
    if (rng.Chance(0.7)) {
      ctx.Free(&addrs[i]).ok();
    } else {
      survivors.push_back(addrs[i]);
      idx.push_back(static_cast<int>(i));
    }
  }
  const uint64_t before = cluster.TotalActiveMemoryBytes();
  auto reports = cluster.CompactAllIfFragmented();
  size_t freed = 0;
  for (const auto& r : *reports) freed += r.blocks_freed;
  std::printf("compacted %zu classes across nodes, %zu blocks freed: "
              "%s -> %s\n",
              reports->size(), freed, FormatBytes(before).c_str(),
              FormatBytes(cluster.TotalActiveMemoryBytes()).c_str());

  size_t verified = 0;
  for (size_t i = 0; i < survivors.size(); ++i) {
    if (ctx.ReadWithRecovery(&survivors[i], buf.data(), 120).ok() &&
        core::PatternCheck(idx[i], buf.data(), 120)) {
      ++verified;
    }
  }
  std::printf("verified %zu/%zu survivors across all nodes\n", verified,
              survivors.size());

  std::printf("\n== 3. replication: reads survive a node failure ==\n");
  ReplicatedContext rctx(&cluster, /*replication_factor=*/3);
  auto robj = rctx.Alloc(200);
  if (!robj.ok()) return 1;
  std::vector<uint8_t> data(200);
  core::PatternFill(777, data.data(), 200);
  rctx.Write(&*robj, data.data(), 200).ok();
  std::printf("object replicated on nodes:");
  for (const auto& replica : robj->replicas) {
    std::printf(" %d", NodeOf(replica));
  }
  const int victim = NodeOf(robj->primary());
  std::printf("\ncrashing primary node %d...\n", victim);
  cluster.CrashNode(victim);
  std::vector<uint8_t> out(200);
  if (rctx.Read(&*robj, out.data(), 200).ok() &&
      core::PatternCheck(777, out.data(), 200)) {
    std::printf("read failed over to a backup replica: data intact "
                "(%llu failovers)\n",
                static_cast<unsigned long long>(rctx.failovers()));
  } else {
    std::printf("FAILOVER FAILED\n");
    return 1;
  }
  cluster.RestartNode(victim);
  cluster.Heartbeat();
  std::printf("\ndone: compaction stayed node-local and never disturbed\n"
              "cross-node pointers or replicas.\n");
  return verified == survivors.size() ? 0 : 1;
}

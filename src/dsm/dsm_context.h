// DsmContext: the Table 2 API over a whole cluster. Routes every operation
// by the node id embedded in the pointer, re-stamping it after server-side
// pointer corrections (objects never migrate between nodes — the paper's
// compaction is node-local, §3.1.2: "CoRM can compact blocks ... belonging
// to the same machine").

#ifndef CORM_DSM_DSM_CONTEXT_H_
#define CORM_DSM_DSM_CONTEXT_H_

#include <memory>
#include <vector>

#include "core/client.h"
#include "dsm/cluster.h"

namespace corm::dsm {

class DsmContext {
 public:
  explicit DsmContext(Cluster* cluster)
      : DsmContext(cluster, core::Context::Options{}) {}
  // Per-node client options (chaos tests shorten the retry deadlines).
  DsmContext(Cluster* cluster, const core::Context::Options& options);

  DsmContext(const DsmContext&) = delete;
  DsmContext& operator=(const DsmContext&) = delete;

  // Allocates on a node chosen by the cluster's placement policy.
  Result<core::GlobalAddr> Alloc(size_t size);
  // Allocates on a specific node (replication and co-location want this);
  // `init` rides in the Alloc RPC (core::Context::Alloc).
  Result<core::GlobalAddr> AllocOn(int node, size_t size, Slice init = {});

  Status Free(core::GlobalAddr* addr);
  Status Read(core::GlobalAddr* addr, void* buf, size_t size);
  Status Write(core::GlobalAddr* addr, const void* buf, size_t size);
  Status DirectRead(const core::GlobalAddr& addr, void* buf, size_t size);
  // Chained multi-object DirectRead (DESIGN.md §12): consecutive
  // same-node runs of `addrs` coalesce into one doorbell-batched post on
  // that node's context. `bufs` strides by `size`; per-object outcomes in
  // `statuses`. Returns the first failure (OK when all succeeded).
  Status DirectReadBatch(const core::GlobalAddr* addrs, size_t n, void* bufs,
                         size_t size, Status* statuses);
  Status ScanRead(core::GlobalAddr* addr, void* buf, size_t size);
  Status ReleasePtr(core::GlobalAddr* addr);
  Status ReadWithRecovery(
      core::GlobalAddr* addr, void* buf, size_t size,
      core::Context::MovedFallback fallback =
          core::Context::MovedFallback::kScanRead);

  // --- Keyed API (DESIGN.md §13). ----------------------------------------
  // Routed by Cluster::KeyOwner(key) — the key's hash-range home — instead
  // of pointer bits. A dead home answers with transient kNetworkError;
  // the range moves only via Cluster::RehomeDeadNode, never implicitly
  // here (a silent rehome would strand the acked writes on the old home).
  // Put returns the object's DSM pointer (node id stamped), so keyed and
  // pointer callers name the same object.
  Result<core::GlobalAddr> Put(uint64_t key, const void* buf, size_t size);
  Status Get(uint64_t key, void* buf, size_t size);
  Status Del(uint64_t key);

  Cluster* cluster() { return cluster_; }
  // The per-node client (stats inspection in tests/benches).
  core::Context* context(int node) { return contexts_[node].get(); }

 private:
  // Validates the target node and returns its context, or kNetworkError.
  Result<core::Context*> Route(const core::GlobalAddr& addr);
  // Same, for keyed ops: resolves the key's home node (written to
  // *node_out even on failure, for Observe attribution).
  Result<core::Context*> RouteKey(uint64_t key, int* node_out);

  // Passive failure detection: operation outcomes double as probes. A
  // network error or timeout against `node` counts as a missed heartbeat;
  // a success renews its lease.
  Status Observe(int node, Status st);

  Cluster* const cluster_;
  std::vector<std::unique_ptr<core::Context>> contexts_;
};

}  // namespace corm::dsm

#endif  // CORM_DSM_DSM_CONTEXT_H_

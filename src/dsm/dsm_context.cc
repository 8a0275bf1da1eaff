#include "dsm/dsm_context.h"

#include <utility>

#include "common/logging.h"

namespace corm::dsm {

DsmContext::DsmContext(Cluster* cluster,
                       const core::Context::Options& options)
    : cluster_(cluster) {
  contexts_.reserve(cluster_->num_nodes());
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    contexts_.push_back(core::Context::Create(cluster_->node(i), options));
  }
}

Result<core::Context*> DsmContext::Route(const core::GlobalAddr& addr) {
  const int node = NodeOf(addr);
  if (node >= cluster_->num_nodes()) {
    return Status::InvalidArgument("pointer references an unknown node");
  }
  if (cluster_->IsDead(node)) {
    // Ground-truth reachability (the QP/connection layer would error out
    // immediately); also counts as a missed lease for the detector.
    cluster_->failure_detector()->ReportFailure(node);
    return Status::NetworkError("node " + std::to_string(node) +
                                " unreachable");
  }
  return contexts_[node].get();
}

Status DsmContext::Observe(int node, Status st) {
  const StatusCode code = st.code();
  if (code == StatusCode::kNetworkError || code == StatusCode::kTimeout) {
    cluster_->failure_detector()->ReportFailure(node);
  } else {
    // Any definitive answer from the node (including application-level
    // errors) proves it is alive: renew its lease.
    cluster_->failure_detector()->ReportSuccess(node);
  }
  return st;
}

Result<core::GlobalAddr> DsmContext::Alloc(size_t size) {
  return AllocOn(cluster_->PickNode(), size);
}

Result<core::GlobalAddr> DsmContext::AllocOn(int node, size_t size,
                                             Slice init) {
  if (node < 0 || node >= cluster_->num_nodes()) {
    return Status::InvalidArgument("bad node index");
  }
  if (cluster_->IsDead(node)) {
    cluster_->failure_detector()->ReportFailure(node);
    return Status::NetworkError("node " + std::to_string(node) +
                                " unreachable");
  }
  auto addr = contexts_[node]->Alloc(size, init);
  CORM_RETURN_NOT_OK(Observe(node, addr.status()));
  SetNode(&*addr, node);
  return *addr;
}

Status DsmContext::Free(core::GlobalAddr* addr) {
  auto ctx = Route(*addr);
  CORM_RETURN_NOT_OK(ctx.status());
  return Observe(NodeOf(*addr), (*ctx)->Free(addr));
}

// Ops that rewrite the pointer must re-stamp the node id afterwards: the
// node-local server knows nothing about cluster routing bits.
Status DsmContext::Read(core::GlobalAddr* addr, void* buf, size_t size) {
  auto ctx = Route(*addr);
  CORM_RETURN_NOT_OK(ctx.status());
  const int node = NodeOf(*addr);
  Status st = Observe(node, (*ctx)->Read(addr, buf, size));
  if (st.ok()) SetNode(addr, node);
  return st;
}

Status DsmContext::Write(core::GlobalAddr* addr, const void* buf,
                         size_t size) {
  auto ctx = Route(*addr);
  CORM_RETURN_NOT_OK(ctx.status());
  const int node = NodeOf(*addr);
  Status st = Observe(node, (*ctx)->Write(addr, buf, size));
  if (st.ok()) SetNode(addr, node);
  return st;
}

Status DsmContext::DirectRead(const core::GlobalAddr& addr, void* buf,
                              size_t size) {
  auto ctx = Route(addr);
  CORM_RETURN_NOT_OK(ctx.status());
  // Strip the routing bits: the node-local consistency check compares the
  // flags-free header fields only, but keep the old-block bit semantics.
  return (*ctx)->DirectRead(addr, buf, size);
}

Status DsmContext::DirectReadBatch(const core::GlobalAddr* addrs, size_t n,
                                   void* bufs, size_t size, Status* statuses) {
  Status first;
  uint8_t* out = static_cast<uint8_t*>(bufs);
  size_t i = 0;
  while (i < n) {
    // Coalesce the run of consecutive same-node addresses into one batch.
    const int node = NodeOf(addrs[i]);
    size_t j = i + 1;
    while (j < n && NodeOf(addrs[j]) == node) ++j;
    auto ctx = Route(addrs[i]);
    if (!ctx.ok()) {
      for (size_t k = i; k < j; ++k) statuses[k] = ctx.status();
      if (first.ok()) first = ctx.status();
    } else {
      Status st = (*ctx)->DirectReadBatch(addrs + i, j - i, out + i * size,
                                          size, statuses + i);
      if (!st.ok() && first.ok()) first = st;
    }
    i = j;
  }
  return first;
}

Status DsmContext::ScanRead(core::GlobalAddr* addr, void* buf, size_t size) {
  auto ctx = Route(*addr);
  CORM_RETURN_NOT_OK(ctx.status());
  const int node = NodeOf(*addr);
  Status st = (*ctx)->ScanRead(addr, buf, size);
  if (st.ok()) SetNode(addr, node);
  return st;
}

Status DsmContext::ReleasePtr(core::GlobalAddr* addr) {
  auto ctx = Route(*addr);
  CORM_RETURN_NOT_OK(ctx.status());
  const int node = NodeOf(*addr);
  Status st = Observe(node, (*ctx)->ReleasePtr(addr));
  if (st.ok()) SetNode(addr, node);
  return st;
}

// Keyed ops route by the key's hash-range home, not by pointer bits. The
// shared IsDead/Observe discipline still applies: a dead home is a
// transient kNetworkError (plus a detector demerit) until the control
// plane explicitly rehomes the range.
Result<core::Context*> DsmContext::RouteKey(uint64_t key, int* node_out) {
  const int node = cluster_->KeyOwner(key);
  *node_out = node;
  if (cluster_->IsDead(node)) {
    cluster_->failure_detector()->ReportFailure(node);
    return Status::NetworkError("key home node " + std::to_string(node) +
                                " unreachable");
  }
  return contexts_[node].get();
}

Result<core::GlobalAddr> DsmContext::Put(uint64_t key, const void* buf,
                                         size_t size) {
  int node = -1;
  auto ctx = RouteKey(key, &node);
  CORM_RETURN_NOT_OK(ctx.status());
  auto addr = (*ctx)->Put(key, buf, size);
  CORM_RETURN_NOT_OK(Observe(node, addr.status()));
  SetNode(&*addr, node);
  return *addr;
}

Status DsmContext::Get(uint64_t key, void* buf, size_t size) {
  int node = -1;
  auto ctx = RouteKey(key, &node);
  CORM_RETURN_NOT_OK(ctx.status());
  return Observe(node, (*ctx)->Get(key, buf, size));
}

Status DsmContext::Del(uint64_t key) {
  int node = -1;
  auto ctx = RouteKey(key, &node);
  CORM_RETURN_NOT_OK(ctx.status());
  return Observe(node, (*ctx)->Del(key));
}

Status DsmContext::ReadWithRecovery(core::GlobalAddr* addr, void* buf,
                                    size_t size,
                                    core::Context::MovedFallback fallback) {
  auto ctx = Route(*addr);
  CORM_RETURN_NOT_OK(ctx.status());
  const int node = NodeOf(*addr);
  Status st = Observe(node, (*ctx)->ReadWithRecovery(addr, buf, size, fallback));
  if (st.ok()) SetNode(addr, node);
  return st;
}

}  // namespace corm::dsm

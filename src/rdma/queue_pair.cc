#include "rdma/queue_pair.h"

namespace corm::rdma {

namespace {
// Paper §3.5: recovering a broken QP "can take few milliseconds".
constexpr uint64_t kReconnectNs = 3'000'000;
}  // namespace

Result<uint64_t> QueuePair::Access(RKey r_key, sim::VAddr addr, void* buf,
                                   size_t len, bool is_write) {
  if (state_.load(std::memory_order_acquire) == State::kError) {
    return Status::QpBroken("QP in error state; Reconnect() first");
  }
  bool broke_qp = false;
  auto fault_ns = rnic_->MttAccess(r_key, addr, buf, len, is_write, &broke_qp);
  if (broke_qp) {
    state_.store(State::kError, std::memory_order_release);
  }
  if (!fault_ns.ok()) return fault_ns.status();
  const uint64_t total_ns = rnic_->model().RdmaReadNs(len) + *fault_ns;
  sim::Pace(total_ns);
  return total_ns;
}

Result<uint64_t> QueuePair::Read(RKey r_key, sim::VAddr addr, void* buf,
                                 size_t len) {
  reads_issued_.fetch_add(1, std::memory_order_relaxed);
  return Access(r_key, addr, buf, len, /*is_write=*/false);
}

Result<uint64_t> QueuePair::Write(RKey r_key, sim::VAddr addr,
                                  const void* data, size_t len) {
  return Access(r_key, addr, const_cast<void*>(data), len, /*is_write=*/true);
}

Result<uint64_t> QueuePair::WriteWithImm(RKey r_key, sim::VAddr addr,
                                         const void* data, size_t len,
                                         uint32_t imm) {
  auto ns = Write(r_key, addr, data, len);
  if (ns.ok()) rnic_->DeliverImm(imm);
  return ns;
}

uint64_t QueuePair::ExecuteWr(WorkRequest* wr) {
  const sim::LatencyModel& m = rnic_->model();
  if (state_.load(std::memory_order_acquire) == State::kError) {
    // Flush semantics: WRs posted to (or chained behind a break on) an
    // errored QP complete with a flush error and consume no wire time.
    wr->status = Status::QpBroken("WR flushed: QP in error state");
    return 0;
  }
  bool broke_qp = false;
  Result<uint64_t> fault_ns = 0;
  uint64_t wire_ns = 0;
  switch (wr->op) {
    case WorkRequest::Op::kRead:
      reads_issued_.fetch_add(1, std::memory_order_relaxed);
      fault_ns = rnic_->MttAccess(wr->r_key, wr->addr, wr->buf, wr->len,
                                  /*is_write=*/false, &broke_qp);
      wire_ns = m.RdmaWireNs(wr->len);
      break;
    case WorkRequest::Op::kWrite:
      fault_ns = rnic_->MttAccess(wr->r_key, wr->addr, wr->buf, wr->len,
                                  /*is_write=*/true, &broke_qp);
      wire_ns = m.RdmaWireNs(wr->len);
      break;
    case WorkRequest::Op::kCas:
      fault_ns = rnic_->MttAtomic(wr->r_key, wr->addr, /*is_cas=*/true,
                                  wr->compare, wr->operand, &wr->old_value,
                                  &broke_qp);
      wire_ns = m.RdmaWireNs(sizeof(uint64_t)) + m.AtomicRmwNs();
      break;
    case WorkRequest::Op::kFetchAdd:
      fault_ns = rnic_->MttAtomic(wr->r_key, wr->addr, /*is_cas=*/false,
                                  /*compare=*/0, wr->operand, &wr->old_value,
                                  &broke_qp);
      wire_ns = m.RdmaWireNs(sizeof(uint64_t)) + m.AtomicRmwNs();
      break;
  }
  if (broke_qp) state_.store(State::kError, std::memory_order_release);
  if (!fault_ns.ok()) {
    wr->status = fault_ns.status();
    return 0;
  }
  wr->status = Status::OK();
  return wire_ns + *fault_ns;
}

Result<uint64_t> PostBatchShared(QueuePair* const* qps, WorkRequest* wrs,
                                 size_t n) {
  if (n == 0) return Status::InvalidArgument("empty WR chain");
  bool any_live = false;
  for (size_t i = 0; i < n; ++i) {
    if (qps[i]->state() == QueuePair::State::kConnected) {
      any_live = true;
      break;
    }
  }
  if (!any_live) {
    return Status::QpBroken("every QP in the chain is in the error state");
  }
  const sim::LatencyModel& m = qps[0]->model();
  // One doorbell rings the whole chain, only the last WR is signaled: the
  // per-verb overhead is paid once (LatencyModel::RdmaBatchNs shape).
  uint64_t total_ns = m.DoorbellNs() + m.CompletionNs();
  for (size_t i = 0; i < n; ++i) {
    total_ns += qps[i]->ExecuteWr(&wrs[i]);
  }
  qps[0]->batches_posted_.fetch_add(1, std::memory_order_relaxed);
  qps[0]->batched_wrs_.fetch_add(n, std::memory_order_relaxed);
  sim::Pace(total_ns);
  return total_ns;
}

Result<uint64_t> QueuePair::PostBatch(WorkRequest* wrs, size_t n) {
  if (n == 0) return Status::InvalidArgument("empty WR chain");
  if (state_.load(std::memory_order_acquire) == State::kError) {
    return Status::QpBroken("QP in error state; Reconnect() first");
  }
  const sim::LatencyModel& m = rnic_->model();
  uint64_t total_ns = m.DoorbellNs() + m.CompletionNs();
  for (size_t i = 0; i < n; ++i) total_ns += ExecuteWr(&wrs[i]);
  batches_posted_.fetch_add(1, std::memory_order_relaxed);
  batched_wrs_.fetch_add(n, std::memory_order_relaxed);
  sim::Pace(total_ns);
  return total_ns;
}

Result<uint64_t> QueuePair::CompareSwap(RKey r_key, sim::VAddr addr,
                                        uint64_t compare, uint64_t swap,
                                        uint64_t* old_value) {
  WorkRequest wr;
  wr.op = WorkRequest::Op::kCas;
  wr.r_key = r_key;
  wr.addr = addr;
  wr.compare = compare;
  wr.operand = swap;
  auto ns = PostBatch(&wr, 1);
  CORM_RETURN_NOT_OK(ns.status());
  CORM_RETURN_NOT_OK(wr.status);
  *old_value = wr.old_value;
  return *ns;
}

Result<uint64_t> QueuePair::FetchAdd(RKey r_key, sim::VAddr addr,
                                     uint64_t addend, uint64_t* old_value) {
  WorkRequest wr;
  wr.op = WorkRequest::Op::kFetchAdd;
  wr.r_key = r_key;
  wr.addr = addr;
  wr.operand = addend;
  auto ns = PostBatch(&wr, 1);
  CORM_RETURN_NOT_OK(ns.status());
  CORM_RETURN_NOT_OK(wr.status);
  *old_value = wr.old_value;
  return *ns;
}

uint64_t QueuePair::Reconnect() {
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  sim::Pace(kReconnectNs);
  state_.store(State::kConnected, std::memory_order_release);
  return kReconnectNs;
}

}  // namespace corm::rdma

#include "bench.h"

#include <cstring>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

void Tally::Merge(const Tally& o) {
  for (int k = 0; k < kNumKinds; ++k) {
    attempted[k] += o.attempted[k];
    ok[k] += o.ok[k];
    failed[k] += o.failed[k];
    traced[k] += o.traced[k];
    for (int c = 0; c < kNumCodes; ++c) codes[k][c] += o.codes[k][c];
  }
  for (int p = 0; p < kNumPaths; ++p) paths[p] += o.paths[p];
  wrong_bytes += o.wrong_bytes;
}

uint64_t Tally::Attempted() const {
  uint64_t n = 0;
  for (uint64_t a : attempted) n += a;
  return n;
}

uint64_t Tally::Failed() const {
  uint64_t n = 0;
  for (uint64_t f : failed) n += f;
  return n;
}

void Recorder::ReserveFor(uint64_t reads, uint64_t writes, bool trace) {
  for (int k = 0; k < kNumKinds; ++k) {
    const uint64_t n = IsRead(static_cast<OpKind>(k)) ? reads : writes;
    host[k].Reserve(n);
    model[k].Reserve(n);
  }
  // Traced sub-windows are half the window; one span per op, capped so
  // two clients stay within 64 MiB of spans.
  static constexpr uint64_t kMaxSpans = 1u << 20;
  spans.Reserve(trace ? std::min<uint64_t>((reads + writes) / 2 + 1024,
                                           kMaxSpans)
                      : 16);
}

void SpanClasses::Add(const Span& s) {
  if ((s.flags & kSpanOk) == 0) return;
  switch (s.name) {
    case kSpanGet:
      if (s.path == kPathGetHint) get_hint.Add(s.dur_ns);
      if (s.path == kPathGetProbe) get_probe.Add(s.dur_ns);
      if (s.path == kPathGetFallback) get_fallback.Add(s.dur_ns);
      if ((s.flags & kSpanOverlapRepair) != 0) get_overlap_repair.Add(s.dur_ns);
      break;
    case kSpanPut:
      if (s.path == kPathPutHintUpdate) put_hint_update.Add(s.dur_ns);
      if (s.path == kPathPutLookupUpdate) put_lookup_update.Add(s.dur_ns);
      if (s.path == kPathPutInsert) put_insert.Add(s.dur_ns);
      break;
    case kSpanDel:
      del.Add(s.dur_ns);
      break;
    case kSpanReplWrite:
      repl_write.Add(s.dur_ns);
      break;
    case kSpanReplRead:
      repl_read.Add(s.dur_ns);
      break;
    default:
      break;
  }
}

bool SpanFile::Open(const std::string& path) {
  f_ = std::fopen(path.c_str(), "wb");
  ok_ = f_ != nullptr && std::fwrite("CORMSPN1", 1, 8, f_) == 8;
  return ok_;
}

void SpanFile::Append(const SpanBuffer& buf) {
  const uint64_t count = buf.spans().size(), lost = buf.dropped();
  recorded_ += count;
  dropped_ += lost;
  if (f_ == nullptr) return;
  ok_ = ok_ && std::fwrite(&count, sizeof(count), 1, f_) == 1 &&
        std::fwrite(&lost, sizeof(lost), 1, f_) == 1 &&
        std::fwrite(buf.spans().data(), sizeof(Span), count, f_) == count;
}

bool SpanFile::Close() {
  if (f_ != nullptr && std::fclose(f_) != 0) ok_ = false;
  f_ = nullptr;
  return ok_;
}

void CollectRecorders(const std::vector<Recorder*>& recs, size_t first_sub,
                      WindowResult* out) {
  for (Recorder* rec : recs) {
    out->tally.Merge(rec->tally);
    out->ops_issued += rec->issued;
    for (const Span& s : rec->spans.spans()) out->span_classes.Add(s);
    if (out->span_file != nullptr) out->span_file->Append(rec->spans);
    std::array<size_t, kNumKinds> total;
    for (int k = 0; k < kNumKinds; ++k) total[k] = rec->host[k].size();
    for (size_t i = 0; first_sub + i < out->subs.size(); ++i) {
      const auto& begin = i < rec->marks.size() ? rec->marks[i] : total;
      const auto& end = i + 1 < rec->marks.size() ? rec->marks[i + 1] : total;
      WindowResult::SubWindow& sub = out->subs[first_sub + i];
      for (int k = 0; k < kNumKinds; ++k) {
        sub.host[k].AppendRange(rec->host[k], begin[k], end[k]);
        sub.model[k].AppendRange(rec->model[k], begin[k], end[k]);
      }
    }
  }
}

void SnapCounters(const std::vector<corm::core::CormNode*>& nodes,
                  CounterSnap* out) {
  // NodeStats is a flat struct of uint64_t counters: sum it field-wise.
  static_assert(sizeof(corm::core::NodeStats) % sizeof(uint64_t) == 0);
  constexpr size_t kFields = sizeof(corm::core::NodeStats) / sizeof(uint64_t);
  uint64_t sum[kFields] = {};
  *out = CounterSnap{};
  for (corm::core::CormNode* node : nodes) {
    const corm::core::NodeStats s = node->stats();
    uint64_t f[kFields];
    std::memcpy(f, &s, sizeof(s));
    for (size_t i = 0; i < kFields; ++i) sum[i] += f[i];

    const auto& r = node->rnic()->stats();
    out->rnic_reads += r.reads.load();
    out->rnic_odp_faults += r.odp_faults.load();
    out->rnic_qp_breaks += r.qp_breaks.load();
    out->rnic_mtt_hits += r.mtt_cache_hits.load();
    out->rnic_mtt_misses += r.mtt_cache_misses.load();

    for (const auto& cf : node->Fragmentation()) {
      out->granted_bytes += cf.granted_bytes;
      out->used_bytes += cf.used_bytes;
      out->blocks += cf.num_blocks;
      out->live_objects += cf.used_bytes / node->classes().ClassSize(cf.class_idx);
    }
    out->active_bytes += node->ActiveMemoryBytes();
    out->virtual_bytes += node->VirtualMemoryBytes();
  }
  std::memcpy(&out->node, sum, sizeof(sum));
}

void AccumulateRound(const CounterSnap& start, const CounterSnap& end,
                     CounterSnap* acc) {
  constexpr size_t kFields = sizeof(corm::core::NodeStats) / sizeof(uint64_t);
  uint64_t a[kFields], s[kFields], e[kFields];
  std::memcpy(a, &acc->node, sizeof(a));
  std::memcpy(s, &start.node, sizeof(s));
  std::memcpy(e, &end.node, sizeof(e));
  for (size_t i = 0; i < kFields; ++i) a[i] += e[i] - s[i];
  std::memcpy(&acc->node, a, sizeof(a));
  acc->rnic_reads += end.rnic_reads - start.rnic_reads;
  acc->rnic_odp_faults += end.rnic_odp_faults - start.rnic_odp_faults;
  acc->rnic_qp_breaks += end.rnic_qp_breaks - start.rnic_qp_breaks;
  acc->rnic_mtt_hits += end.rnic_mtt_hits - start.rnic_mtt_hits;
  acc->rnic_mtt_misses += end.rnic_mtt_misses - start.rnic_mtt_misses;
  acc->granted_bytes = end.granted_bytes;
  acc->used_bytes = end.used_bytes;
  acc->blocks = end.blocks;
  acc->live_objects = end.live_objects;
  acc->active_bytes = end.active_bytes;
  acc->virtual_bytes = end.virtual_bytes;
}

}  // namespace perfbench

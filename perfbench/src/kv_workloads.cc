// kv-read-zipf, kv-churn and the kv-churn-overlap defect probe: one CormNode
// driven through core::Context's keyed API (Put/Get/Del) by two closed-loop
// client threads.

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/zipf.h"
#include "index/index_layout.h"
#include "workload/keyed_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

using corm::Status;
using corm::core::Context;
using corm::core::CormConfig;
using corm::core::CormNode;

constexpr size_t kValue = 64;

struct KvClient {
  std::unique_ptr<Context> ctx;
  const Control* ctl = nullptr;  // the round's window control
  Recorder rec;
  corm::Rng rng;
  corm::core::ClientStats cs_start, cs_end;
  uint64_t turn = 0;  // ops stepped, measured or not
  // kv-read-zipf: this client's key generator.
  std::unique_ptr<corm::ZipfGenerator> zipf;
  // kv-churn: this client's live keys and the direction of its swing.
  std::vector<uint64_t> live;
  uint64_t next_key = 0;
  bool growing = false;
  uint64_t load_refused = 0;  // Puts the index refused during the load
  alignas(64) std::atomic<uint64_t> live_count{0};
  // kv-churn: the ChurnGate generation this client saw before its last op.
  alignas(64) std::atomic<uint64_t> seen_gen{0};
};

struct KvNode {
  std::unique_ptr<CormNode> node;
  std::vector<std::unique_ptr<KvClient>> clients;

  // Contexts go before the node they are connected to.
  ~KvNode() {
    clients.clear();
    node.reset();
  }
};

// One keyed op: timed on the host clock, its modeled ns read from the
// context, recorded when measuring, and classified into a span when the
// window has tracing on. A Get's bytes are compared with `expect`;
// a mismatch counts as a failed op and as wrong bytes. Returns whether the
// op succeeded.
bool KeyedOp(KvClient* c, CormNode* node, const Control& ctl, OpKind kind,
             uint64_t key, uint8_t* buf, const uint8_t* expect,
             bool measuring) {
  Context* ctx = c->ctx.get();
  const uint32_t window = ctl.window.load(std::memory_order_relaxed);
  const bool tracing = measuring && TracedWindow(window);
  corm::core::ClientStats before;
  uint64_t batches0 = 0, repairs0 = 0;
  if (tracing) {
    before = ctx->stats();
    batches0 = ctx->queue_pair()->batches_posted();
    repairs0 =
        node->rnic()->stats().repair_batches.load(std::memory_order_relaxed);
  }
  const uint64_t t0 = NowNs();
  Status st;
  switch (kind) {
    case kGet:
      st = ctx->Get(key, buf, kValue);
      break;
    case kPut:
      st = ctx->Put(key, expect, kValue).status();
      break;
    default:
      st = ctx->Del(key);
      break;
  }
  const uint64_t t1 = NowNs();
  if (kind == kGet && st.ok() && std::memcmp(buf, expect, kValue) != 0) {
    ++c->rec.tally.wrong_bytes;
    st = Status::Internal("Get returned wrong bytes");
  }
  if (!measuring) return st.ok();
  const uint64_t model = ctx->stats().last_op_ns;
  c->rec.Record(kind, st, t0, t1, model, SubWindowOf(window));
  if (tracing) {
    const uint64_t rpcs = ctx->stats().rpc_calls - before.rpc_calls;
    uint8_t path = kPathNone;
    uint8_t flags = 0;
    if (kind == kGet) {
      if (rpcs > 0) {
        path = kPathGetFallback;
      } else if (ctx->queue_pair()->batches_posted() != batches0) {
        path = kPathGetProbe;
      } else {
        path = kPathGetHint;
      }
      if (node->rnic()->stats().repair_batches.load(
              std::memory_order_relaxed) != repairs0) {
        flags |= kSpanOverlapRepair;
      }
    } else if (kind == kPut) {
      // Hint path: one Write RPC. Lookup path: lookup + Write (+ a failed
      // hint Write). Insert: lookup, Alloc, Write, kIndexInsert.
      path = rpcs == 1   ? kPathPutHintUpdate
             : rpcs <= 3 ? kPathPutLookupUpdate
                         : kPathPutInsert;
    }
    c->rec.Trace(kind, st, t0, t1, model, ctl.epoch_ns, path, flags);
  }
  ++c->rec.op_seq;
  return st.ok();
}

// Re-reads `keys` through the client and counts the wrong or failed ones.
template <typename Keys>
uint64_t SweepKeys(KvClient* c, const Keys& keys) {
  uint8_t buf[kValue], expect[kValue];
  uint64_t bad = 0;
  for (uint64_t key : keys) {
    corm::workload::FillValue(key, expect, kValue);
    const Status st = c->ctx->Get(key, buf, kValue);
    if (!st.ok() || std::memcmp(buf, expect, kValue) != 0) ++bad;
  }
  return bad;
}

// What distinguishes the keyed workloads.
struct KvShape {
  int clients = 2;  // closed-loop client threads, one Context each
  size_t index_buckets = 0;
  uint64_t reads_per_client = 0;  // sample reservations per round
  uint64_t writes_per_client = 0;
  // load(i, client): fills client i's keys (runs on its own thread).
  std::function<Status(int, KvClient*)> load;
  // warm(node, client), if set: runs on the client's thread before its
  // loop, inside the warm-up; its ops are not measured.
  std::function<void(CormNode*, KvClient*)> warm;
  // step(node, client, measuring): one op of the closed loop.
  std::function<void(CormNode*, KvClient*, bool)> step;
  // Live payload bytes right now (read by DriveWindow).
  std::function<uint64_t(const KvNode&)> live_bytes;
  // Re-reads the client's live keys after the window; returns the bad.
  std::function<uint64_t(KvClient*)> sweep;
  // Live keys the workload accounts for at the end of a round.
  std::function<uint64_t(const KvNode&)> live_keys;
  // before_sub(node, kv, i, n), if set: runs on DriveWindow's thread before
  // sub-window i of n opens, returns its phase, and starts background
  // compaction when the workload wants it. Without it, compaction starts
  // right after the load. It runs to the end of the window either way.
  std::function<int(CormNode*, const KvNode&, int, int)> before_sub;
};

// Runs Rounds(opt) rounds. Each builds a node with its clients, loads it
// (construction + load timed as setup_s), starts background compaction
// (or leaves that to shape.before_sub), runs the warm-up and window with one
// thread per client, then checks the data and the node and folds everything
// into `out`.
void RunKvRounds(const Options& opt, const KvShape& shape, WindowResult* out) {
  CormConfig cfg;
  cfg.num_workers = 2;
  cfg.nic_msg_rate = 0;  // uncapped: host time is this code's CPU work
  cfg.index_buckets = shape.index_buckets;
  Control ctl;
  ctl.epoch_ns = NowNs();
  SpanBuffer* main_spans = &out->main_spans;
  for (int round = 0; round < Rounds(opt); ++round) {
    cfg.seed = opt.seed * 1000 + static_cast<uint64_t>(round);
    KvNode kv;

    // Set-up: construction and load. A load racing compaction would see
    // transient ObjectLocked Puts, so compaction starts after it; it then
    // runs through the warm-up and the window.
    const uint64_t t0 = NowNs();
    const int32_t construct = main_spans->Open(kSpanConstruct, -1, ctl.epoch_ns);
    kv.node = std::make_unique<CormNode>(cfg);
    for (int i = 0; i < shape.clients; ++i) {
      auto c = std::make_unique<KvClient>();
      c->ctx = Context::Create(kv.node.get());
      c->ctl = &ctl;
      c->rng.Seed(cfg.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(i));
      c->rec.client_tag = (static_cast<uint64_t>(round) << 60) |
                          (static_cast<uint64_t>(i + 1) << 56);
      c->rec.ReserveFor(shape.reads_per_client, shape.writes_per_client,
                        opt.trace);
      kv.clients.push_back(std::move(c));
    }
    main_spans->Close(construct, ctl.epoch_ns);
    const int32_t load_span = main_spans->Open(kSpanLoad, -1, ctl.epoch_ns);
    std::vector<Status> loaded(shape.clients);
    {
      std::vector<std::thread> threads;
      for (int i = 0; i < shape.clients; ++i) {
        threads.emplace_back(
            [&, i] { loaded[i] = shape.load(i, kv.clients[i].get()); });
      }
      for (auto& t : threads) t.join();
    }
    if (!shape.before_sub) kv.node->StartBackgroundCompaction();
    main_spans->Close(load_span, ctl.epoch_ns);
    out->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    for (const Status& st : loaded) {
      if (!st.ok()) {
        out->checks.push_back({"load", false, st.ToString()});
        return;
      }
    }

    // Warm-up and window.
    ctl.phase.store(kPhaseWarmup, std::memory_order_release);
    CormNode* node = kv.node.get();
    if (shape.before_sub) {
      ctl.before_sub = [&](int i, int n) {
        return shape.before_sub(node, kv, i, n);
      };
      ctl.sub_parts = 2;
    }
    std::vector<std::thread> threads;
    for (auto& cp : kv.clients) {
      KvClient* c = cp.get();
      threads.emplace_back([&, c] {
        if (shape.warm) shape.warm(node, c);
        ClientLoop(
            ctl, &c->rec, [c] { c->cs_start = c->ctx->stats(); },
            [&, c](bool measuring) { shape.step(node, c, measuring); },
            [c] { c->cs_end = c->ctx->stats(); });
      });
    }
    const std::vector<CormNode*> nodes = {node};
    CounterSnap start, end;
    const size_t first_sub = out->subs.size();
    DriveWindow(
        opt, &ctl, main_spans,
        [&] {
          uint64_t n = 0;
          for (auto& c : kv.clients) {
            n += c->rec.ok_ops.load(std::memory_order_relaxed);
          }
          return n;
        },
        [&] {
          return static_cast<double>(node->ActiveMemoryBytes()) /
                 static_cast<double>(std::max<uint64_t>(shape.live_bytes(kv), 1));
        },
        [&](CounterSnap* s) { SnapCounters(nodes, s); }, &start, out);
    for (auto& t : threads) t.join();
    ctl.before_sub = nullptr;
    // The end counters wait for the compaction run in progress: blocks it
    // holds are missing from Fragmentation() until it hands them back.
    node->StopBackgroundCompaction();
    const int32_t sample = main_spans->Open(kSpanCounterSample, -1, ctl.epoch_ns);
    SnapCounters(nodes, &end);
    main_spans->Close(sample, ctl.epoch_ns);
    AccumulateRound(start, end, &out->counters);

    std::vector<Recorder*> recs;
    for (auto& c : kv.clients) {
      recs.push_back(&c->rec);
      ClientSnap start_stats, end_stats;
      start_stats.Add(c->cs_start);
      end_stats.Add(c->cs_end);
      out->client.AddDelta(end_stats, start_stats);
    }
    CollectRecorders(recs, first_sub, out);
    out->live_keys = shape.live_keys(kv);
    out->live_user_bytes = out->live_keys * kValue;
    out->expected_objects = out->live_keys;
    out->index_entries = cfg.index_buckets * corm::index::kEntriesPerBucket;

    // Correctness: every expected key reads back right once compaction is
    // quiet, and the node's own invariant audit passes.
    const int32_t check = main_spans->Open(kSpanCheck, -1, ctl.epoch_ns);
    uint64_t bad = 0;
    for (auto& c : kv.clients) bad += shape.sweep(c.get());
    out->checks.push_back({"sweep_reads", bad == 0,
                           std::to_string(bad) + " expected keys unreadable"});
    const Status audit = node->Audit();
    out->checks.push_back({"node_audit", audit.ok(), audit.ToString()});
    main_spans->Close(check, ctl.epoch_ns);
  }
}

}  // namespace

void RunKvReadZipf(const Options& opt, WindowResult* out) {
  const uint64_t keys = opt.tiny ? 4096 : 65536;
  const double theta = 0.99;
  const double get_fraction = 0.95;
  KvShape shape;
  shape.index_buckets = opt.tiny ? 8192 : 131072;
  shape.reads_per_client = 1u << 20;
  shape.writes_per_client = 1u << 16;
  out->params = {{"nodes", 1},
                 {"workers", 2},
                 {"clients", static_cast<double>(shape.clients)},
                 {"keys", static_cast<double>(keys)},
                 {"value_bytes", kValue},
                 {"index_buckets", static_cast<double>(shape.index_buckets)},
                 {"zipf_theta", theta},
                 {"get_fraction", get_fraction},
                 {"rounds", static_cast<double>(Rounds(opt))}};

  // Every value is FillValue(key); precomputed so the check is a memcmp.
  std::vector<uint8_t> values(keys * kValue);
  for (uint64_t k = 0; k < keys; ++k) {
    corm::workload::FillValue(k, &values[k * kValue], kValue);
  }

  shape.load = [&](int i, KvClient* c) {
    c->zipf = std::make_unique<corm::ZipfGenerator>(keys, theta, c->rng.Next());
    const uint64_t half = keys / shape.clients;
    for (uint64_t k = i * half; k < (i + 1) * half; ++k) {
      CORM_RETURN_NOT_OK(c->ctx->Put(k, &values[k * kValue], kValue).status());
    }
    return Status::OK();
  };
  // Read every key once, so each client's hint cache holds the whole key
  // space before the window opens.
  shape.warm = [&](CormNode* node, KvClient* c) {
    uint8_t buf[kValue];
    for (uint64_t k = 0; k < keys; ++k) {
      KeyedOp(c, node, *c->ctl, kGet, k, buf, &values[k * kValue], false);
    }
  };
  shape.step = [&](CormNode* node, KvClient* c, bool measuring) {
    uint8_t buf[kValue];
    const uint64_t key = std::min(c->zipf->Next(), keys - 1);
    const OpKind kind = c->rng.NextDouble() < get_fraction ? kGet : kPut;
    KeyedOp(c, node, *c->ctl, kind, key, buf, &values[key * kValue],
            measuring);
  };
  shape.live_bytes = [&](const KvNode&) { return keys * kValue; };
  shape.sweep = [&](KvClient* c) {
    std::vector<uint64_t> all(keys);
    for (uint64_t k = 0; k < keys; ++k) all[k] = k;
    return SweepKeys(c, all);
  };
  shape.live_keys = [&](const KvNode&) { return keys; };
  RunKvRounds(opt, shape, out);
  out->user_bytes_written = out->tally.ok[kPut] * kValue;
}

namespace {

// Lets kv-churn's clients write only while background compaction is off.
// A keyed Del that meets a block under compaction fails after its key was
// unlinked, and the node then never frees the object (a known defect, shown
// by kv-churn-overlap), so kv-churn keeps its writes and compaction apart.
struct ChurnGate {
  std::atomic<bool> writes{true};
  std::atomic<uint64_t> gen{0};

  // Runs before each op: acknowledges the generation, then says whether
  // the op may write.
  bool MayWrite(KvClient* c) const {
    c->seen_gen.store(gen.load());
    return writes.load();
  }
  // Stops writes and returns once no client can still be in a write: each
  // has acknowledged the new generation, so its next op reads writes off.
  void CloseWrites(const KvNode& kv) {
    writes.store(false);
    const uint64_t g = gen.fetch_add(1) + 1;
    for (auto& c : kv.clients) {
      while (c->seen_gen.load() != g) std::this_thread::yield();
    }
  }
};

// The first half of a round's sub-windows churn (Get, Put, Del; compaction
// off), the second half read while background compaction runs (Gets only).
// With Control::sub_parts = 2 each half holds as many traced as untraced
// sub-windows. Compaction stays on to the end of the window; the end
// counters then wait for the run in progress to finish.
bool CompactionSubWindow(int i, int n) { return i >= n / 2; }

void RunKvChurn(const Options& opt, bool overlap, WindowResult* out) {
  KvShape shape;
  // Both swing the node's live set between a 16,384-key peak and half of
  // it. The probe does so from 2 clients with its index 40% full at the
  // peak, which shows the refused Puts. kv-churn uses 1 client: with 2,
  // where a round's threads landed on the host's few cores moved write
  // latency up to 3x from one round to the next. Its index is 3% full at
  // the peak, so no Put is refused.
  shape.clients = overlap ? 2 : 1;
  const uint64_t high = (opt.tiny ? 1024 : 16384) / shape.clients;
  const uint64_t low = high / 2;
  if (overlap) {
    shape.index_buckets = opt.tiny ? 640 : 10240;
  } else {
    shape.index_buckets = opt.tiny ? 8192 : 131072;
  }
  shape.reads_per_client = 1u << 20;
  shape.writes_per_client = 1u << 18;
  out->params = {{"nodes", 1},
                 {"workers", 2},
                 {"clients", static_cast<double>(shape.clients)},
                 {"live_high_per_client", static_cast<double>(high)},
                 {"live_low_per_client", static_cast<double>(low)},
                 {"value_bytes", kValue},
                 {"index_buckets", static_cast<double>(shape.index_buckets)},
                 {"get_fraction_churn", 0.5},
                 {"writes_overlap_compaction", overlap ? 1.0 : 0.0},
                 {"rounds", static_cast<double>(Rounds(opt))}};

  ChurnGate gate;
  if (!overlap) {
    shape.before_sub = [&](CormNode* node, const KvNode& kv, int i, int n) {
      const bool compact = CompactionSubWindow(i, n);
      if (compact && gate.writes.load()) {
        gate.CloseWrites(kv);
        node->StartBackgroundCompaction();
      }
      return compact ? 1 : 0;
    };
  }

  uint64_t load_refused = 0;
  shape.load = [&](int i, KvClient* c) {
    // Disjoint key ranges: client i owns keys (i + 1) << 32 onward. A Put
    // the full index refuses is counted and the next fresh key tried, as
    // in the window; any other error fails the load.
    c->next_key = static_cast<uint64_t>(i + 1) << 32;
    gate.writes.store(true);  // each round opens with churn
    uint8_t value[kValue];
    while (c->live.size() < high) {
      const uint64_t key = c->next_key++;
      corm::workload::FillValue(key, value, kValue);
      const Status st = c->ctx->Put(key, value, kValue).status();
      if (st.IsOutOfMemory()) {
        ++c->load_refused;
        continue;
      }
      CORM_RETURN_NOT_OK(st);
      c->live.push_back(key);
    }
    c->live_count.store(c->live.size());
    return Status::OK();
  };
  shape.step = [&](CormNode* node, KvClient* c, bool measuring) {
    uint8_t buf[kValue], expect[kValue];
    const bool may_write = overlap || gate.MayWrite(c);
    if (c->turn++ % 2 == 0 || !may_write) {
      // A Get of a live key: its value is exactly FillValue(key).
      const uint64_t key = c->live[c->rng.Uniform(c->live.size())];
      corm::workload::FillValue(key, expect, kValue);
      KeyedOp(c, node, *c->ctl, kGet, key, buf, expect, measuring);
    } else if (c->growing) {
      const uint64_t key = c->next_key++;
      corm::workload::FillValue(key, expect, kValue);
      if (KeyedOp(c, node, *c->ctl, kPut, key, buf, expect, measuring)) {
        c->live.push_back(key);
      }
      if (c->live.size() >= high) c->growing = false;
    } else {
      // A failed Del leaves the key in an unknown state (it may already be
      // unlinked), so it leaves the live set either way and is never read
      // again.
      const size_t at = c->rng.Uniform(c->live.size());
      const uint64_t key = c->live[at];
      c->live[at] = c->live.back();
      c->live.pop_back();
      KeyedOp(c, node, *c->ctl, kDel, key, buf, expect, measuring);
      if (c->live.size() <= low) c->growing = true;
    }
    c->live_count.store(c->live.size(), std::memory_order_relaxed);
  };
  shape.live_bytes = [](const KvNode& n) {
    uint64_t live = 0;
    for (auto& c : n.clients) {
      live += c->live_count.load(std::memory_order_relaxed);
    }
    return live * kValue;
  };
  shape.sweep = [](KvClient* c) { return SweepKeys(c, c->live); };
  shape.live_keys = [&](const KvNode& n) {
    uint64_t live = 0;
    for (auto& c : n.clients) {
      live += c->live.size();
      load_refused += c->load_refused;
    }
    return live;
  };
  RunKvRounds(opt, shape, out);
  out->user_bytes_written = out->tally.ok[kPut] * kValue;
  // Each Put the index refused while loading left an orphan object behind.
  out->params.push_back(
      {"load_refused_puts", static_cast<double>(load_refused)});
}

}  // namespace

void RunKvChurn(const Options& opt, WindowResult* out) {
  RunKvChurn(opt, false, out);
}

void RunKvChurnOverlap(const Options& opt, WindowResult* out) {
  RunKvChurn(opt, true, out);
}

}  // namespace perfbench

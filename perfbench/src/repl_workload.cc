// repl-rw: a 3-node dsm::Cluster driven through dsm::ReplicatedContext by
// one closed-loop client (replicated Write and Read, 50/50, uniform).

#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common/random.h"
#include "dsm/cluster.h"
#include "dsm/replication.h"
#include "workload/keyed_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

using corm::Status;
using corm::dsm::Cluster;
using corm::dsm::ReplicatedAddr;
using corm::dsm::ReplicatedContext;

constexpr size_t kValue = 64;
constexpr int kNodes = 3;
constexpr int kReplicas = 2;

// Object i's value after its g-th write attempt.
void ValueOf(uint64_t i, uint64_t g, uint8_t* buf) {
  corm::workload::FillValue((i << 32) | g, buf, kValue);
}

struct ReplSetup {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ReplicatedContext> rc;
  std::vector<ReplicatedAddr> objs;
  std::vector<uint64_t> gen;      // write attempts so far, per object
  std::vector<uint64_t> acked;    // generation of the last acked write
  std::vector<uint64_t> pending;  // an unacked (uncertain) write, or 0

  // True when `buf` holds object i's last acked value, or its uncertain
  // newer one, which then becomes the acked floor.
  bool Matches(uint64_t i, const uint8_t* buf) {
    uint8_t want[kValue];
    ValueOf(i, acked[i], want);
    if (std::memcmp(buf, want, kValue) == 0) return true;
    if (pending[i] == 0) return false;
    ValueOf(i, pending[i], want);
    if (std::memcmp(buf, want, kValue) != 0) return false;
    acked[i] = pending[i];
    pending[i] = 0;
    return true;
  }

  // The context goes before the cluster it is connected to.
  ~ReplSetup() {
    rc.reset();
    cluster.reset();
  }
};

// Sum of modeled ns over the per-node contexts a replicated Read uses.
uint64_t ReadModelNs(ReplicatedContext* rc) {
  uint64_t ns = 0;
  for (int n = 0; n < kNodes; ++n) {
    ns += rc->dsm()->context(n)->stats().modeled_ns_total;
  }
  return ns;
}

ClientSnap SnapClients(ReplicatedContext* rc) {
  ClientSnap s;
  for (int n = 0; n < kNodes; ++n) s.Add(rc->dsm()->context(n)->stats());
  return s;
}

}  // namespace

void RunReplRw(const Options& opt, WindowResult* out) {
  const uint64_t objects = opt.tiny ? 256 : 4096;
  out->params = {{"nodes", kNodes},
                 {"workers_per_node", 1},
                 {"clients", 1},
                 {"replication_factor", kReplicas},
                 {"objects", static_cast<double>(objects)},
                 {"value_bytes", kValue},
                 {"read_fraction", 0.5},
                 {"rounds", static_cast<double>(Rounds(opt))}};

  corm::dsm::ClusterConfig ccfg;
  ccfg.num_nodes = kNodes;
  ccfg.node_config.num_workers = 1;
  ccfg.node_config.nic_msg_rate = 0;  // uncapped, as for the kv workloads

  Control ctl;
  ctl.epoch_ns = NowNs();
  SpanBuffer& main_spans = out->main_spans;
  for (int round = 0; round < Rounds(opt); ++round) {
    ccfg.node_config.seed = opt.seed * 1000 + static_cast<uint64_t>(round);
    ReplSetup rs;
    uint8_t value[kValue];

    // Set-up: cluster construction and the load (allocate every object on
    // k nodes and write generation 0). Compaction starts after it and runs
    // through the warm-up and the window.
    const uint64_t t0 = NowNs();
    const int32_t construct = main_spans.Open(kSpanConstruct, -1, ctl.epoch_ns);
    rs.cluster = std::make_unique<Cluster>(ccfg);
    rs.rc = std::make_unique<ReplicatedContext>(rs.cluster.get(), kReplicas);
    main_spans.Close(construct, ctl.epoch_ns);
    const int32_t load = main_spans.Open(kSpanLoad, -1, ctl.epoch_ns);
    rs.gen.assign(objects, 0);
    rs.acked.assign(objects, 0);
    rs.pending.assign(objects, 0);
    Status st;
    for (uint64_t i = 0; i < objects && st.ok(); ++i) {
      auto addr = rs.rc->Alloc(kValue);
      st = addr.status();
      if (!st.ok()) break;
      rs.objs.push_back(std::move(*addr));
      ValueOf(i, 0, value);
      st = rs.rc->Write(&rs.objs.back(), value, kValue);
    }
    rs.cluster->StartBackgroundCompaction();
    main_spans.Close(load, ctl.epoch_ns);
    out->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) {
      out->checks.push_back({"load", false, st.ToString()});
      return;
    }

    ReplicatedContext* rc = rs.rc.get();
    Recorder rec;
    rec.client_tag = static_cast<uint64_t>(round) << 60 | uint64_t{1} << 56;
    rec.ReserveFor(1u << 17, 1u << 17, opt.trace);
    corm::Rng rng(ccfg.node_config.seed * 0x9e3779b97f4a7c15ULL);
    ClientSnap cs_start, cs_end;

    // One op: a Write of the object's next generation, or a Read checked
    // against the last acked generation (or an uncertain newer one).
    auto step = [&](bool measuring) {
      const uint64_t i = rng.Uniform(objects);
      ReplicatedAddr* addr = &rs.objs[i];
      const uint32_t window = ctl.window.load(std::memory_order_relaxed);
      OpKind kind;
      Status op;
      uint64_t model = 0;
      uint64_t t_start = 0, t_end = 0;
      if (rng.Next() & 1) {
        kind = kReplWrite;
        const uint64_t g = ++rs.gen[i];
        ValueOf(i, g, value);
        t_start = NowNs();
        op = rc->Write(addr, value, kValue);
        t_end = NowNs();
        model = rc->last_op_ns();
        if (op.ok()) {
          rs.acked[i] = g;
          rs.pending[i] = 0;
        } else {
          rs.pending[i] = g;
        }
      } else {
        kind = kReplRead;
        uint8_t buf[kValue];
        const uint64_t m0 = ReadModelNs(rc);
        t_start = NowNs();
        op = rc->Read(addr, buf, kValue);
        t_end = NowNs();
        model = ReadModelNs(rc) - m0;
        if (op.ok() && !rs.Matches(i, buf)) {
          ++rec.tally.wrong_bytes;
          op = Status::Internal("replicated Read returned wrong bytes");
        }
      }
      if (!measuring) return;
      rec.Record(kind, op, t_start, t_end, model, SubWindowOf(window));
      if (TracedWindow(window)) {
        rec.Trace(kind, op, t_start, t_end, model, ctl.epoch_ns, kPathNone, 0);
      }
      ++rec.op_seq;
    };

    ctl.phase.store(kPhaseWarmup, std::memory_order_release);
    std::thread client([&] {
      ClientLoop(
          ctl, &rec, [&] { cs_start = SnapClients(rc); }, step,
          [&] { cs_end = SnapClients(rc); });
    });
    std::vector<corm::core::CormNode*> nodes;
    for (int n = 0; n < kNodes; ++n) nodes.push_back(rs.cluster->node(n));
    const double live_bytes = static_cast<double>(objects * kValue);
    CounterSnap start, end;
    const size_t first_sub = out->subs.size();
    DriveWindow(
        opt, &ctl, &main_spans,
        [&] { return rec.ok_ops.load(std::memory_order_relaxed); },
        [&] {
          return static_cast<double>(rs.cluster->TotalActiveMemoryBytes()) /
                 live_bytes;
        },
        [&](CounterSnap* s) { SnapCounters(nodes, s); }, &start, out);
    client.join();
    const int32_t sample = main_spans.Open(kSpanCounterSample, -1, ctl.epoch_ns);
    SnapCounters(nodes, &end);
    main_spans.Close(sample, ctl.epoch_ns);
    AccumulateRound(start, end, &out->counters);

    CollectRecorders({&rec}, first_sub, out);
    out->client.AddDelta(cs_end, cs_start);
    out->expected_objects = objects * kReplicas;
    out->live_user_bytes = objects * kValue;

    // Correctness: every object reads back its last acked value (or the
    // uncertain newer one), and every node's invariant audit passes.
    const int32_t check = main_spans.Open(kSpanCheck, -1, ctl.epoch_ns);
    rs.cluster->StopBackgroundCompaction();
    uint64_t bad = 0;
    for (uint64_t i = 0; i < objects; ++i) {
      uint8_t buf[kValue];
      if (!rc->Read(&rs.objs[i], buf, kValue).ok() || !rs.Matches(i, buf)) {
        ++bad;
      }
    }
    out->checks.push_back({"sweep_reads", bad == 0,
                           std::to_string(bad) + " objects unreadable or wrong"});
    for (int n = 0; n < kNodes; ++n) {
      const Status audit = rs.cluster->node(n)->Audit();
      out->checks.push_back(
          {"node_audit_" + std::to_string(n), audit.ok(), audit.ToString()});
    }
    main_spans.Close(check, ctl.epoch_ns);
  }
  out->user_bytes_written = out->tally.ok[kReplWrite] * kValue;
}

}  // namespace perfbench

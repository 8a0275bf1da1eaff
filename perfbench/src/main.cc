// nodebench: runs one workload against a CoRM node (or cluster) through
// the public client APIs and prints one JSON report as its last line.
//
//   nodebench --workload <kv-read-zipf|kv-churn|repl-rw|kv-churn-overlap>
//             --seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//
// End-to-end metrics come from every run; a traced run (--trace 1) adds the
// per-layer metrics, taken from spans recorded around each public call and
// from node counters read at window start and end, and writes its spans to
// DIR/spans-<workload>.bin. Exit code 1 when a correctness check failed.
// run.py builds this binary and turns the report into the benchmark line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "sim/latency_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

class MetricSink {
 public:
  void Add(std::string name, double value, std::string unit,
           uint64_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Latency percentiles are taken per untraced sub-window and the median
// over sub-windows is reported, so a burst of host interference in one
// sub-window does not move the run's figure. The median is taken per op
// kind and per phase of the round, and the reported value is the mean over
// those groups: kv-churn's Puts and Dels take different times and its
// sub-windows hold them in changing shares, so a median over the mixed
// samples would jump between the two. Samples = ops behind it.
void EndToEnd(WindowResult& r, MetricSink* m) {
  const double attempted = static_cast<double>(r.tally.Attempted());
  const double failed = static_cast<double>(r.tally.Failed());
  m->Add("throughput_ops_s", Median(r.untraced_rates), "1/s",
         r.untraced_rates.size());
  using Sub = WindowResult::SubWindow;
  using KindSamples = std::array<Samples, kNumKinds>;
  int phases = 1;
  for (const Sub& sub : r.subs) phases = std::max(phases, sub.phase + 1);
  auto latency = [&](const char* name, bool reads, KindSamples Sub::*field,
                     double p, double scale, const char* unit) {
    std::vector<double> groups;
    uint64_t n = 0;
    for (int k = 0; k < kNumKinds; ++k) {
      if (IsRead(static_cast<OpKind>(k)) != reads) continue;
      for (int phase = 0; phase < phases; ++phase) {
        std::vector<double> per_sub;
        for (Sub& sub : r.subs) {
          Samples& s = (sub.*field)[k];
          if (sub.traced || sub.phase != phase || s.size() == 0) continue;
          per_sub.push_back(s.Percentile(p) / scale);
          n += s.size();
        }
        if (!per_sub.empty()) groups.push_back(Median(per_sub));
      }
    }
    double sum = 0;
    for (double g : groups) sum += g;
    m->Add(name, Ratio(sum, static_cast<double>(groups.size())), unit, n);
  };
  latency("read_p50_us", true, &Sub::host, 0.50, 1e3, "us");
  latency("read_p99_us", true, &Sub::host, 0.99, 1e3, "us");
  latency("write_p50_us", false, &Sub::host, 0.50, 1e3, "us");
  latency("write_p99_us", false, &Sub::host, 0.99, 1e3, "us");
  latency("read_model_p50_ns", true, &Sub::model, 0.50, 1, "ns");
  latency("read_model_p99_ns", true, &Sub::model, 0.99, 1, "ns");
  latency("write_model_p50_ns", false, &Sub::model, 0.50, 1, "ns");
  latency("write_model_p99_ns", false, &Sub::model, 0.99, 1, "ns");
  double model_sum = 0;
  uint64_t model_ops = 0;
  for (const Sub& sub : r.subs) {
    if (sub.traced) continue;
    for (const Samples& s : sub.model) {
      model_sum += s.Mean() * static_cast<double>(s.size());
      model_ops += s.size();
    }
  }
  m->Add("model_ns_per_op", Ratio(model_sum, static_cast<double>(model_ops)),
         "ns", model_ops);
  double amp = 0;
  for (double a : r.mem_amplification) amp += a;
  m->Add("mem_amplification",
         Ratio(amp, static_cast<double>(r.mem_amplification.size())), "ratio",
         r.mem_amplification.size());
  m->Add("failed_ops_ratio", Ratio(failed, attempted), "ratio",
         r.tally.Attempted());
  m->Add("ok_ops_ratio", 1 - Ratio(failed, attempted), "ratio",
         r.tally.Attempted());
  m->Add("setup_s", Median(r.setup_s), "s", r.setup_s.size());
}

void PerLayer(WindowResult& r, MetricSink* m) {
  // Counter deltas summed over the rounds; state from the last round.
  const CounterSnap& c = r.counters;
  const corm::core::NodeStats& n = c.node;
  auto d = [](uint64_t x) { return static_cast<double>(x); };
  const uint64_t ops_n = r.tally.Attempted();
  const double ops = d(ops_n);
  const Tally& t = r.tally;
  SpanClasses& sc = r.span_classes;
  auto count = [&](const char* name, uint64_t v) {
    m->Add(name, d(v), "count", 1);
  };
  auto per_op = [&](const char* name, uint64_t v) {
    m->Add(name, Ratio(d(v), ops), "1/op", ops_n);
  };
  auto ratio = [&](const char* name, uint64_t num, uint64_t den) {
    m->Add(name, Ratio(d(num), d(den)), "ratio", den);
  };
  auto span_us = [&](const char* name, Samples& s, double p) {
    m->Add(name, s.Percentile(p) / 1e3, "us", s.size());
  };

  // core.client
  const ClientSnap& cl = r.client;
  per_op("client.rpcs_per_op", cl.rpc_calls);
  per_op("client.one_sided_reads_per_op", cl.direct_reads);
  ratio("client.read_failure_ratio", cl.direct_read_failures, cl.direct_reads);
  per_op("client.retries_per_op", cl.retries);
  count("client.moved_reads", cl.moved_reads);
  count("client.torn_reads", cl.torn_reads);

  // index: classified paths of the traced Gets, span times per path.
  const uint64_t gets = t.traced[kGet];
  ratio("index.hint_hit_ratio", t.paths[kPathGetHint], gets);
  ratio("index.probe_ratio", t.paths[kPathGetProbe], gets);
  ratio("index.rpc_fallback_ratio", t.paths[kPathGetFallback], gets);
  span_us("index.get_hint_us", sc.get_hint, 0.5);
  span_us("index.get_probe_us", sc.get_probe, 0.5);
  span_us("index.get_fallback_us", sc.get_fallback, 0.5);
  Samples updates = sc.put_hint_update;
  updates.AppendRange(sc.put_lookup_update, 0, sc.put_lookup_update.size());
  span_us("index.put_update_us", updates, 0.5);
  span_us("index.put_insert_us", sc.put_insert, 0.5);
  span_us("index.del_us", sc.del, 0.5);
  m->Add("index.refused_puts",
         d(t.codes[kPut][static_cast<int>(corm::StatusCode::kOutOfMemory)]),
         "count", t.attempted[kPut]);
  count("index.repairs", n.index_repairs);
  m->Add("index.load_factor", Ratio(d(r.live_keys), d(r.index_entries)),
         "ratio", 1);

  // core.worker
  count("worker.rpcs", n.rpc_polled);
  m->Add("worker.batch_fill", Ratio(d(n.rpc_polled), d(n.rpc_batches)),
         "1/batch", n.rpc_batches);
  ratio("worker.forwarded_ratio", n.forwarded_ops, n.rpc_polled);
  count("worker.corrections", n.corrections_messaging + n.corrections_scan);
  span_us("worker.single_rpc_us", sc.put_hint_update, 0.5);
  span_us("worker.single_rpc_p99_us", sc.put_hint_update, 0.99);

  // core.directory
  ratio("directory.cache_hit_ratio", n.dir_cache_hits,
        n.dir_cache_hits + n.dir_cache_misses);

  // alloc (Fragmentation() at the last window's end)
  count("alloc.live_objects", c.live_objects);
  m->Add("alloc.orphan_objects", d(c.live_objects) - d(r.expected_objects),
         "count", 1);
  m->Add("alloc.frag_ratio", Ratio(d(c.granted_bytes), d(c.used_bytes)),
         "ratio", 1);
  count("alloc.blocks", c.blocks);
  count("alloc.id_draw_fallbacks", n.id_draw_fallbacks);

  // core.compaction
  count("compaction.runs", n.compaction_runs);
  count("compaction.slices", n.compaction_slices);
  count("compaction.objects_moved", n.objects_moved);
  m->Add("compaction.bytes_copied_per_user_byte",
         Ratio(d(n.compaction_bytes_copied), d(r.user_bytes_written)), "B/B",
         r.user_bytes_written);
  ratio("compaction.planner_rejection_ratio", n.compaction_planner_rejections,
        n.compaction_planner_rejections + n.blocks_compacted);
  count("compaction.timeouts", n.compaction_timeouts);
  count("compaction.ghosts_released", n.ghosts_released);
  span_us("compaction.overlap_read_p99_us", sc.get_overlap_repair, 0.99);

  // rdma
  per_op("rnic.reads_per_op", c.rnic_reads);
  ratio("rnic.mtt_miss_ratio", c.rnic_mtt_misses,
        c.rnic_mtt_hits + c.rnic_mtt_misses);
  count("rnic.odp_faults", c.rnic_odp_faults);
  count("rnic.qp_breaks", c.rnic_qp_breaks);
  m->Add("rdma.wrs_per_doorbell",
         Ratio(d(n.doorbell_batched_wrs), d(n.doorbell_batches)), "1/doorbell",
         n.doorbell_batches);

  // sync
  per_op("sync.acquires_per_op", n.sync_lock_acquires);
  per_op("sync.conflicts_per_op", n.sync_lock_conflicts);

  // dsm.replication
  const uint64_t writes = t.attempted[kReplWrite];
  span_us("repl.write_us", sc.repl_write, 0.5);
  span_us("repl.read_us", sc.repl_read, 0.5);
  m->Add("repl.ship_records_per_write", Ratio(d(n.repl_ship_records), d(writes)),
         "1/op", writes);
  m->Add("repl.applied_records_per_write",
         Ratio(d(n.repl_applied_records), d(writes)), "1/op", writes);
  count("repl.apply_dups", n.repl_apply_dups);
  count("repl.degraded_writes", n.repl_degraded_writes);
  count("repl.quorum_timeouts", n.repl_quorum_timeouts);
  count("repl.stale_reads", n.repl_stale_reads);

  // sim
  m->Add("mem.active_bytes", d(c.active_bytes), "B", 1);
  m->Add("mem.virtual_bytes", d(c.virtual_bytes), "B", 1);
  m->Add("mem.live_user_bytes", d(r.live_user_bytes), "B", 1);

  m->Add("trace.overhead_ratio",
         Ratio(Median(r.traced_rates), Median(r.untraced_rates)), "ratio",
         r.traced_rates.size());
}

// Outcome reconciliation: every op issued has exactly one outcome, and in
// a traced run every traced Get/Put has exactly one classified path.
void Reconcile(const Options& opt, WindowResult* r) {
  const Tally& t = r->tally;
  bool sums = true;
  for (int k = 0; k < kNumKinds; ++k) {
    sums = sums && t.attempted[k] == t.ok[k] + t.failed[k];
  }
  r->checks.push_back({"outcomes_sum_to_attempted", sums, ""});
  r->checks.push_back(
      {"attempted_equals_issued", t.Attempted() == r->ops_issued,
       std::to_string(t.Attempted()) + " vs " + std::to_string(r->ops_issued)});
  r->checks.push_back({"no_wrong_bytes", t.wrong_bytes == 0,
                       std::to_string(t.wrong_bytes) + " wrong reads"});
  r->checks.push_back({"window_has_ops", t.Attempted() > 0, ""});
  if (opt.trace) {
    const uint64_t get_paths = t.paths[kPathGetHint] + t.paths[kPathGetProbe] +
                               t.paths[kPathGetFallback];
    const uint64_t put_paths = t.paths[kPathPutHintUpdate] +
                               t.paths[kPathPutLookupUpdate] +
                               t.paths[kPathPutInsert];
    r->checks.push_back({"get_paths_sum_to_gets", get_paths == t.traced[kGet],
                         std::to_string(get_paths) + " vs " +
                             std::to_string(t.traced[kGet])});
    r->checks.push_back({"put_paths_sum_to_puts", put_paths == t.traced[kPut],
                         std::to_string(put_paths) + " vs " +
                             std::to_string(t.traced[kPut])});
  }
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// How this binary was built: results from unoptimised or sanitizer builds
// are flagged invalid and run.py refuses to publish them.
struct Provenance {
  bool optimized = false;
  bool sanitizer = false;
};

Provenance BuildProvenance() {
  Provenance p;
#if defined(__OPTIMIZE__)
  p.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  p.sanitizer = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  p.sanitizer = true;
#endif
#endif
  return p;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--tiny") {
      opt->tiny = true;
    } else if (a == "--workload" && (v = value())) {
      opt->workload = v;
    } else if (a == "--seed" && (v = value())) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      opt->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = value())) {
      opt->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--out-dir" && (v = value())) {
      opt->out_dir = v;
    } else {
      return false;
    }
  }
  // One round per second: keep the count a small positive int.
  return !opt->workload.empty() && opt->seconds > 0 && opt->seconds <= 3600;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: nodebench --workload W --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--out-dir DIR]\n");
    return 2;
  }
  // Host timings measure this code's CPU work: no modeled pacing.
  corm::sim::SetSimTimeScale(0.0);

  WindowResult r;
  r.main_spans.Reserve(256);
  SpanFile spans;
  const std::string span_path = opt.out_dir + "/spans-" + opt.workload + ".bin";
  if (opt.trace) {
    spans.Open(span_path);
    r.span_file = &spans;
  }
  if (opt.workload == "kv-read-zipf") {
    RunKvReadZipf(opt, &r);
  } else if (opt.workload == "kv-churn") {
    RunKvChurn(opt, &r);
  } else if (opt.workload == "kv-churn-overlap") {
    RunKvChurnOverlap(opt, &r);
  } else if (opt.workload == "repl-rw") {
    RunReplRw(opt, &r);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  Reconcile(opt, &r);

  MetricSink sink;
  EndToEnd(r, &sink);
  if (opt.trace) {
    PerLayer(r, &sink);
    // The main buffer goes last: the set-up, warm-up, counter-sample and
    // check spans of every round.
    spans.Append(r.main_spans);
    r.checks.push_back({"spans_written", spans.Close(), span_path});
  }

  bool correct = true;
  for (const Check& c : r.checks) correct = correct && c.ok;
  const Provenance prov = BuildProvenance();

  std::string js = "{\"workload\": " + JsonStr(opt.workload);
  js += ", \"seed\": " + std::to_string(opt.seed);
  js += ", \"trace\": " + std::to_string(opt.trace ? 1 : 0);
  js += ", \"tiny\": " + std::to_string(opt.tiny ? 1 : 0);
  js += ", \"window_s\": " + JsonNum(r.seconds);
  js += ", \"build\": {\"compiler\": " + JsonStr(__VERSION__) +
        ", \"build_type\": " + JsonStr(PERFBENCH_BUILD_TYPE) +
        ", \"cxx_flags\": " + JsonStr(PERFBENCH_CXX_FLAGS) +
        ", \"optimized\": " + (prov.optimized ? "true" : "false") +
        ", \"sanitizer\": " + (prov.sanitizer ? "true" : "false") +
        ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
        "}";
  js += ", \"params\": {";
  for (size_t i = 0; i < r.params.size(); ++i) {
    js += (i ? ", " : "") + JsonStr(r.params[i].first) + ": " +
          JsonNum(r.params[i].second);
  }
  js += "}, \"checks\": [";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    js += std::string(i ? ", " : "") + "{\"name\": " + JsonStr(c.name) +
          ", \"ok\": " + (c.ok ? "true" : "false") +
          ", \"detail\": " + JsonStr(c.detail) + "}";
  }
  js += "], \"outcomes\": {";
  static constexpr const char* kKindNames[kNumKinds] = {
      "get", "put", "del", "repl_read", "repl_write"};
  bool first = true;
  for (int k = 0; k < kNumKinds; ++k) {
    if (r.tally.attempted[k] == 0) continue;
    js += std::string(first ? "" : ", ") + JsonStr(kKindNames[k]) +
          ": {\"attempted\": " + std::to_string(r.tally.attempted[k]) +
          ", \"ok\": " + std::to_string(r.tally.ok[k]) + ", \"failed_by\": {";
    bool first_code = true;
    for (int c = 0; c < kNumCodes; ++c) {
      if (r.tally.codes[k][c] == 0) continue;
      js += std::string(first_code ? "" : ", ") +
            JsonStr(std::string(corm::StatusCodeToString(
                static_cast<corm::StatusCode>(c)))) +
            ": " + std::to_string(r.tally.codes[k][c]);
      first_code = false;
    }
    js += "}}";
    first = false;
  }
  js += "}, \"spans\": {\"recorded\": " + std::to_string(spans.recorded()) +
        ", \"dropped\": " + std::to_string(spans.dropped()) + "}";
  js += ", \"correct\": " + std::string(correct ? "true" : "false");
  js += ", \"attempted\": " + std::to_string(r.tally.Attempted());
  js += ", \"failed\": " + std::to_string(r.tally.Failed());
  js += ", \"metrics\": {";
  for (size_t i = 0; i < sink.metrics().size(); ++i) {
    const Metric& m = sink.metrics()[i];
    js += (i ? ", " : "") + JsonStr(m.name) + ": {\"value\": " +
          JsonNum(m.value) + ", \"unit\": " + JsonStr(m.unit) +
          ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return correct ? 0 : 1;
}

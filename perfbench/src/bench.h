// Shared machinery of the node benchmark: the host clock, latency samples,
// the in-memory span buffer, per-client op recording and the timed window.
// Workloads (kv_workloads.cc, repl_workload.cc) drive the public client APIs
// through these; main.cc turns a WindowResult into the named metrics.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/client.h"
#include "core/corm_node.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Command line -----------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Small key counts and short phases: the self-test's shape check.
  bool tiny = false;
  std::string out_dir = ".";
};

// --- Latency samples --------------------------------------------------------

// Raw per-op values (ns, clamped to 32 bits). Percentiles interpolate
// between ranks, so a reported value keeps every digit the samples carry.
class Samples {
 public:
  void Reserve(size_t n) { v_.reserve(n); }
  void Add(uint64_t ns) {
    v_.push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
  }
  // Appends other's samples [begin, end).
  void AppendRange(const Samples& other, size_t begin, size_t end) {
    v_.insert(v_.end(), other.v_.begin() + static_cast<ptrdiff_t>(begin),
              other.v_.begin() + static_cast<ptrdiff_t>(end));
  }
  size_t size() const { return v_.size(); }
  // p in [0, 1]; 0 when empty.
  double Percentile(double p) {
    if (v_.empty()) return 0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    const double rank = p * static_cast<double>(v_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, v_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<double>(v_[lo]) * (1 - frac) +
           static_cast<double>(v_[hi]) * frac;
  }
  double Mean() const {
    if (v_.empty()) return 0;
    double sum = 0;
    for (uint32_t x : v_) sum += static_cast<double>(x);
    return sum / static_cast<double>(v_.size());
  }

 private:
  std::vector<uint32_t> v_;
  bool sorted_ = false;
};

double Median(std::vector<double> v);

// --- Spans ------------------------------------------------------------------

enum SpanName : uint8_t {
  kSpanWindow,
  kSpanConstruct,
  kSpanLoad,
  kSpanWarmup,
  kSpanCounterSample,
  kSpanGet,
  kSpanPut,
  kSpanDel,
  kSpanReplRead,
  kSpanReplWrite,
  kSpanCheck,
};

// How a keyed op was served, classified from the client's own ClientStats
// and QueuePair counter deltas around the call.
enum OpPath : uint8_t {
  kPathNone,
  kPathGetHint,        // cached hint, one validated READ, no RPC
  kPathGetProbe,       // one-sided bucket probe (a chained post), no RPC
  kPathGetFallback,    // kIndexLookup RPC (plus recovering read)
  kPathPutHintUpdate,  // cached hint: exactly one Write RPC
  kPathPutLookupUpdate,  // lookup RPC, then the Write RPC
  kPathPutInsert,      // lookup, Alloc, Write, kIndexInsert
  kNumPaths,
};

inline constexpr uint8_t kSpanOk = 1;
inline constexpr uint8_t kSpanOverlapRepair = 2;  // an MTT repair batch ran

struct Span {
  uint64_t op_id = 0;
  uint64_t start_ns = 0;  // relative to the run's epoch
  uint32_t dur_ns = 0;
  int32_t parent = -1;    // index in the same buffer, -1 for a root
  uint32_t model_ns = 0;  // modeled ns of an op span
  uint8_t name = 0;
  uint8_t path = kPathNone;
  uint8_t flags = 0;
  uint8_t pad = 0;
};
static_assert(sizeof(Span) == 32);

// Preallocated; Add never allocates. A full buffer drops and counts.
class SpanBuffer {
 public:
  void Reserve(size_t n) { spans_.reserve(n); }
  int32_t Add(const Span& s) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  // Opens a span now (dur filled by Close).
  int32_t Open(uint8_t name, int32_t parent, uint64_t epoch_ns) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.start_ns = NowNs() - epoch_ns;
    return Add(s);
  }
  void Close(int32_t idx, uint64_t epoch_ns) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<size_t>(idx)];
    s.dur_ns = static_cast<uint32_t>(NowNs() - epoch_ns - s.start_ns);
    s.flags |= kSpanOk;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// --- Op recording -----------------------------------------------------------

enum OpKind : uint8_t { kGet, kPut, kDel, kReplRead, kReplWrite, kNumKinds };

inline bool IsRead(OpKind k) { return k == kGet || k == kReplRead; }

inline constexpr int kNumCodes = 17;  // StatusCode values fit below this

struct Tally {
  std::array<uint64_t, kNumKinds> attempted{};
  std::array<uint64_t, kNumKinds> ok{};
  std::array<uint64_t, kNumKinds> failed{};
  // Non-OK outcomes by status code, per kind.
  std::array<std::array<uint64_t, kNumCodes>, kNumKinds> codes{};
  // OK reads whose bytes differed from the expected value.
  uint64_t wrong_bytes = 0;
  // Classified paths of traced keyed ops, and how many ops were traced.
  std::array<uint64_t, kNumPaths> paths{};
  std::array<uint64_t, kNumKinds> traced{};

  void Merge(const Tally& o);
  uint64_t Attempted() const;
  uint64_t Failed() const;
};

// One client thread's record of the timed window. Only the owning thread
// writes it, except ok_ops, which DriveWindow samples.
struct Recorder {
  // Host and modeled ns of successful ops, by kind.
  std::array<Samples, kNumKinds> host, model;
  // Samples of each kind recorded before each sub-window began.
  std::vector<std::array<size_t, kNumKinds>> marks;
  Tally tally;
  SpanBuffer spans;
  int32_t window_span = -1;
  uint64_t issued = 0;  // ops the loop stepped inside the window
  uint64_t op_seq = 0;
  uint64_t client_tag = 0;  // high bits of this client's op ids
  alignas(64) std::atomic<uint64_t> ok_ops{0};

  // Records one op of sub-window `sub` of the timed window. Latency
  // samples hold successful ops only; failures are counted in the tally.
  void Record(OpKind kind, const corm::Status& st, uint64_t start_ns,
              uint64_t end_ns, uint64_t model_ns, uint32_t sub) {
    while (marks.size() <= sub) {
      std::array<size_t, kNumKinds>& m = marks.emplace_back();
      for (int k = 0; k < kNumKinds; ++k) m[k] = host[k].size();
    }
    ++tally.attempted[kind];
    if (!st.ok()) {
      ++tally.failed[kind];
      const int code = static_cast<int>(st.code());
      ++tally.codes[kind][code >= 0 && code < kNumCodes ? code : 0];
      return;
    }
    ++tally.ok[kind];
    ok_ops.fetch_add(1, std::memory_order_relaxed);
    host[kind].Add(end_ns - start_ns);
    model[kind].Add(model_ns);
  }

  // The traced half: one span per op under this client's window span.
  void Trace(OpKind kind, const corm::Status& st, uint64_t start_ns,
             uint64_t end_ns, uint64_t model_ns, uint64_t epoch_ns,
             uint8_t path, uint8_t flags) {
    static constexpr uint8_t kSpanOf[kNumKinds] = {
        kSpanGet, kSpanPut, kSpanDel, kSpanReplRead, kSpanReplWrite};
    ++tally.traced[kind];
    ++tally.paths[path];
    Span s;
    s.op_id = client_tag | op_seq;
    s.start_ns = start_ns - epoch_ns;
    s.dur_ns = static_cast<uint32_t>(end_ns - start_ns);
    s.parent = window_span;
    s.model_ns = static_cast<uint32_t>(model_ns);
    s.name = kSpanOf[kind];
    s.path = path;
    s.flags = static_cast<uint8_t>(flags | (st.ok() ? kSpanOk : 0));
    spans.Add(s);
  }

  // Sizes the sample vectors and (traced) the span buffer up front so the
  // timed loop does not reallocate.
  void ReserveFor(uint64_t reads, uint64_t writes, bool trace);
};

// --- The timed window -------------------------------------------------------

enum Phase : int { kPhaseWarmup, kPhaseMeasure, kPhaseStop };

// Shared between DriveWindow and the client threads.
struct Control {
  std::atomic<int> phase{kPhaseWarmup};
  // (sub-window index << 1) | traced: one load per op tells a client both.
  std::atomic<uint32_t> window{0};
  uint64_t epoch_ns = 0;  // span timestamps are relative to this
  // If set, DriveWindow calls it with (i, n) before sub-window i of n
  // opens; it returns the sub-window's phase (see SubWindow::phase).
  std::function<int(int, int)> before_sub;
  // n is a multiple of this (and, in a traced run, of twice this), so a
  // workload that splits the window into this many equal parts gives each
  // part as many traced as untraced sub-windows.
  int sub_parts = 1;
};

inline uint32_t SubWindowOf(uint32_t window) { return window >> 1; }
inline bool TracedWindow(uint32_t window) { return (window & 1) != 0; }

// Node-wide counters read at window start and end (never per op).
struct CounterSnap {
  corm::core::NodeStats node;
  uint64_t rnic_reads = 0, rnic_odp_faults = 0, rnic_qp_breaks = 0,
           rnic_mtt_hits = 0, rnic_mtt_misses = 0;
  // Fragmentation() totals (messages the workers: start/end only).
  uint64_t granted_bytes = 0, used_bytes = 0, blocks = 0, live_objects = 0;
  uint64_t active_bytes = 0, virtual_bytes = 0;
};

// Sums counters over `nodes` into `out`.
void SnapCounters(const std::vector<corm::core::CormNode*>& nodes,
                  CounterSnap* out);

// Adds one round's counter deltas (end - start) to `acc` and copies the
// round's end state (Fragmentation totals, memory) over acc's.
void AccumulateRound(const CounterSnap& start, const CounterSnap& end,
                     CounterSnap* acc);

// Client-side counters summed over a workload's contexts.
struct ClientSnap {
  uint64_t rpc_calls = 0, direct_reads = 0, direct_read_failures = 0,
           retries = 0, moved_reads = 0, torn_reads = 0;
  void Add(const corm::core::ClientStats& s) {
    rpc_calls += s.rpc_calls;
    direct_reads += s.direct_reads;
    direct_read_failures += s.direct_read_failures;
    retries += s.retries;
    moved_reads += s.moved_reads;
    torn_reads += s.torn_reads;
  }
  void AddDelta(const ClientSnap& end, const ClientSnap& start) {
    rpc_calls += end.rpc_calls - start.rpc_calls;
    direct_reads += end.direct_reads - start.direct_reads;
    direct_read_failures += end.direct_read_failures - start.direct_read_failures;
    retries += end.retries - start.retries;
    moved_reads += end.moved_reads - start.moved_reads;
    torn_reads += end.torn_reads - start.torn_reads;
  }
};

// Span files: "CORMSPN1", then per appended buffer its span count, dropped
// count and raw Span records (the layout above). Buffers are appended as
// each round ends, so spans never pile up across rounds.
class SpanFile {
 public:
  bool Open(const std::string& path);
  void Append(const SpanBuffer& buf);
  bool Close();  // false if any write failed
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::FILE* f_ = nullptr;
  bool ok_ = true;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
};

// Durations (ns) of successful traced op spans, by class.
struct SpanClasses {
  Samples get_hint, get_probe, get_fallback;
  Samples put_hint_update, put_lookup_update, put_insert, del;
  Samples get_overlap_repair;  // Gets during which an MTT repair batch ran
  Samples repl_write, repl_read;
  void Add(const Span& s);
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

// Everything a workload measured over its rounds; main.cc derives the
// metrics from it.
struct WindowResult {
  double seconds = 0;                   // timed, summed over rounds
  std::vector<double> setup_s;          // one per round
  std::vector<double> untraced_rates;   // ok ops/s per sub-window
  std::vector<double> traced_rates;
  std::vector<double> mem_amplification;  // per sub-window sample
  // Latency samples of each sub-window by op kind, merged over the
  // clients.
  struct SubWindow {
    bool traced = false;
    // Which part of a round the sub-window belongs to, for a workload
    // whose rounds change what they do halfway (kv-churn); else 0.
    int phase = 0;
    std::array<Samples, kNumKinds> host, model;
  };
  std::vector<SubWindow> subs;
  SpanBuffer main_spans;  // set-up, warm-up, samples, checks
  SpanFile* span_file = nullptr;  // traced runs: where op spans go
  SpanClasses span_classes;
  Tally tally;
  // Counter deltas summed over the rounds; state fields from the last.
  CounterSnap counters;
  ClientSnap client;              // client counter deltas, all rounds
  uint64_t live_keys = 0;         // at the last window's end
  uint64_t index_entries = 0;     // bucket capacity (0: no keyed index)
  uint64_t live_user_bytes = 0;   // at window end
  uint64_t user_bytes_written = 0;  // payload bytes of OK writes
  uint64_t expected_objects = 0;  // live objects the workload accounts for
  uint64_t ops_issued = 0;        // counted by the client loops
  std::vector<Check> checks;
  std::vector<std::pair<std::string, double>> params;
};

// Folds one round's client records into `out`: tallies, ops issued, span
// classes (the spans themselves go to out->span_file) and the latency
// samples of the round's sub-windows, which start at out->subs[first_sub].
void CollectRecorders(const std::vector<Recorder*>& recs, size_t first_sub,
                      WindowResult* out);

// Rounds per run, one per second of --seconds: each builds the node(s)
// afresh (timed: setup_s), warms up and measures 1 s, so no one set of
// thread placements or memory layout decides a run's figures.
inline int Rounds(const Options& opt) {
  return opt.tiny ? 2 : std::max(2, static_cast<int>(opt.seconds + 0.5));
}

// A client thread's closed loop: step(measuring) until DriveWindow
// stops it. on_start() runs before the first measured op and on_end() after
// the last op, so a client snapshots its own (unsynchronized) stats.
template <typename OnStart, typename Step, typename OnEnd>
void ClientLoop(const Control& ctl, Recorder* rec, OnStart on_start,
                Step step, OnEnd on_end) {
  bool started = false;
  for (;;) {
    const int ph = ctl.phase.load(std::memory_order_acquire);
    if (ph == kPhaseStop) break;
    const bool measuring = ph == kPhaseMeasure;
    if (measuring && !started) {
      on_start();
      rec->window_span = rec->spans.Open(kSpanWindow, -1, ctl.epoch_ns);
      started = true;
    }
    step(measuring);
    if (measuring) ++rec->issued;
  }
  if (!started) on_start();
  on_end();
  rec->spans.Close(rec->window_span, ctl.epoch_ns);
}

inline constexpr double kSubWindowS = 0.2;

// Drives one round's warm-up and timed window (seconds / rounds) from the
// calling thread while the workload's client threads run. Records one
// ok-ops rate per sub-window and one memory sample; in a traced run the
// sub-windows alternate untraced/traced, so both rates come from the same
// node state. `ok_ops()` sums the clients' counters, `mem_amp()` samples
// active memory over live payload, `snap(CounterSnap*)` reads the
// node-wide counters into `start`. Returns with the phase set to stop; the
// caller joins its clients.
template <typename OkOps, typename MemAmp, typename Snap>
void DriveWindow(const Options& opt, Control* ctl, SpanBuffer* main_spans,
                 OkOps ok_ops, MemAmp mem_amp, Snap snap, CounterSnap* start,
                 WindowResult* out) {
  const double warmup_s = opt.tiny ? 0.2 : 0.3;
  const double window_s = opt.seconds / Rounds(opt);
  const int32_t warm = main_spans->Open(kSpanWarmup, -1, ctl->epoch_ns);
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  main_spans->Close(warm, ctl->epoch_ns);

  const int32_t sample = main_spans->Open(kSpanCounterSample, -1, ctl->epoch_ns);
  snap(start);
  main_spans->Close(sample, ctl->epoch_ns);

  int n = std::max(2, static_cast<int>(window_s / kSubWindowS + 0.5));
  const int multiple = ctl->sub_parts * (opt.trace ? 2 : 1);
  n = (n + multiple - 1) / multiple * multiple;
  const auto sub = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(window_s / n));
  const auto t0 = std::chrono::steady_clock::now();
  ctl->phase.store(kPhaseMeasure, std::memory_order_release);
  uint64_t prev_t = NowNs();
  uint64_t prev_ops = ok_ops();
  for (int i = 0; i < n; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    WindowResult::SubWindow& sw = out->subs.emplace_back();
    sw.traced = traced;
    if (ctl->before_sub) sw.phase = ctl->before_sub(i, n);
    ctl->window.store((static_cast<uint32_t>(i) << 1) | (traced ? 1 : 0),
                      std::memory_order_relaxed);
    std::this_thread::sleep_until(t0 + sub * (i + 1));
    const uint64_t t = NowNs();
    const uint64_t ops = ok_ops();
    const double rate = static_cast<double>(ops - prev_ops) * 1e9 /
                        static_cast<double>(t - prev_t);
    (traced ? out->traced_rates : out->untraced_rates).push_back(rate);
    out->mem_amplification.push_back(mem_amp());
    prev_t = t;
    prev_ops = ops;
  }
  out->seconds += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  ctl->phase.store(kPhaseStop, std::memory_order_release);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

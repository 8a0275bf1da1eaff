// Per-scheme correctness for the remote synchronization shootout
// (DESIGN.md §12): lock-word packing, read/write roundtrips under every
// sync::SchemeKind, crashed-holder lease recovery (fault site
// sim::fault_sites::kSyncHolderCrash), doorbell-batched multi-object reads,
// and a concurrent chaos run asserting torn writes are never visible
// regardless of scheme.
//
// CORM_SYNC_SCHEME=<optimistic|cas_spinlock> narrows the
// per-scheme cases to one scheme (the CI sync-matrix lever); unset, every
// scheme runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "dsm/cluster.h"
#include "dsm/dsm_context.h"
#include "sim/fault_injector.h"
#include "sync/sync_scheme.h"

namespace corm {
namespace {

using core::GlobalAddr;
using core::PatternCheck;
using core::PatternFill;
using sync::SchemeKind;

// A failure a sync scheme or the fault schedule may legitimately cause.
bool Transient(const Status& st) {
  switch (st.code()) {
    case StatusCode::kTimeout:
    case StatusCode::kNetworkError:
    case StatusCode::kObjectLocked:
    case StatusCode::kTornRead:
    case StatusCode::kQpBroken:
    case StatusCode::kObjectMoved:
      return true;
    default:
      return false;
  }
}

core::CormConfig NodeConfigFor(SchemeKind kind) {
  core::CormConfig config;
  config.num_workers = 1;
  config.sync_scheme = kind;
  // Short lease so crashed-holder steals resolve in test time (wall clock).
  config.sync_lease_ns = 1'000'000;
  return config;
}

// CI matrix lever: with CORM_SYNC_SCHEME set, only that scheme's
// parameterized cases run; the rest skip.
bool SchemeSelected(SchemeKind kind) {
  const char* env = std::getenv("CORM_SYNC_SCHEME");
  if (env == nullptr || *env == '\0') return true;
  SchemeKind selected;
  EXPECT_TRUE(sync::ParseSchemeKind(env, &selected))
      << "bad CORM_SYNC_SCHEME: " << env;
  return selected == kind;
}

// --- Names and word layouts -------------------------------------------------

TEST(SyncSchemeTest, SchemeNamesRoundTrip) {
  for (SchemeKind kind : {SchemeKind::kOptimistic, SchemeKind::kCasSpinlock}) {
    SchemeKind parsed;
    ASSERT_TRUE(sync::ParseSchemeKind(sync::SchemeName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  SchemeKind parsed;
  EXPECT_FALSE(sync::ParseSchemeKind("mutex_over_tcp", &parsed));
}

TEST(SyncSchemeTest, CasLockWordPacksAllFields) {
  sync::CasLockWord w;
  w.held = true;
  w.owner = 0x7abc;
  w.gen = 0xdead'beef'cafeULL;
  const sync::CasLockWord r = sync::CasLockWord::Unpack(w.Pack());
  EXPECT_EQ(r.held, true);
  EXPECT_EQ(r.owner, 0x7abc);
  EXPECT_EQ(r.gen, 0xdead'beef'cafeULL);
  EXPECT_EQ(sync::CasLockWord{}.Pack(), 0u);  // pristine slot == zeroed word
}

// --- Per-scheme roundtrips --------------------------------------------------

class PerSchemeTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(PerSchemeTest, WriteThenDirectReadRoundTrips) {
  if (!SchemeSelected(GetParam())) GTEST_SKIP() << "CORM_SYNC_SCHEME filter";
  core::CormNode node(NodeConfigFor(GetParam()));
  auto ctx = core::Context::Create(&node);
  ASSERT_EQ(ctx->sync_scheme(), GetParam());

  auto addr = ctx->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(64), out(64);
  PatternFill(7, in.data(), in.size());
  ASSERT_TRUE(ctx->Write(&*addr, in.data(), in.size()).ok());
  ASSERT_TRUE(ctx->DirectRead(*addr, out.data(), out.size()).ok());
  EXPECT_EQ(in, out);

  // Lock schemes must have taken (and released) locks for both the write
  // bracket and the guarded read; optimistic takes none.
  const core::ClientStats& cs = ctx->stats();
  if (GetParam() == SchemeKind::kOptimistic) {
    EXPECT_EQ(cs.sync_lock_acquires, 0u);
  } else {
    EXPECT_GE(cs.sync_lock_acquires, 2u);
    EXPECT_EQ(cs.sync_lock_timeouts, 0u);
    // The same events landed on the node's sharded counters.
    EXPECT_GE(node.stats().sync_lock_acquires, cs.sync_lock_acquires);
  }
  ASSERT_TRUE(ctx->Free(&*addr).ok());
}

TEST_P(PerSchemeTest, DirectReadBatchCoalescesAndValidates) {
  if (!SchemeSelected(GetParam())) GTEST_SKIP() << "CORM_SYNC_SCHEME filter";
  constexpr size_t kObjects = 20;  // > kBatchChain: forces two chains
  core::CormNode node(NodeConfigFor(GetParam()));
  auto ctx = core::Context::Create(&node);

  std::vector<GlobalAddr> addrs;
  for (size_t i = 0; i < kObjects; ++i) {
    auto addr = ctx->Alloc(64);
    ASSERT_TRUE(addr.ok());
    std::vector<uint8_t> in(64);
    PatternFill(static_cast<int>(i), in.data(), in.size());
    ASSERT_TRUE(ctx->Write(&*addr, in.data(), in.size()).ok());
    addrs.push_back(*addr);
  }

  std::vector<uint8_t> bufs(kObjects * 64);
  std::vector<Status> statuses(kObjects);
  ASSERT_TRUE(ctx->DirectReadBatch(addrs.data(), kObjects, bufs.data(), 64,
                                   statuses.data())
                  .ok());
  for (size_t i = 0; i < kObjects; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
    EXPECT_TRUE(PatternCheck(static_cast<int>(i), bufs.data() + i * 64, 64))
        << i;
  }
  EXPECT_GE(ctx->stats().direct_read_batches, 2u);
  EXPECT_GE(node.stats().doorbell_batches, 2u);
  EXPECT_GE(node.stats().doorbell_batched_wrs, kObjects);

  // A dangling pointer inside a batch fails validation for its own entry
  // only (the slot memory is still registered, so the chain stays intact).
  const GlobalAddr freed = addrs[3];
  ASSERT_TRUE(ctx->Free(&addrs[3]).ok());
  std::vector<GlobalAddr> again = addrs;
  again[3] = freed;
  Status st = ctx->DirectReadBatch(again.data(), kObjects, bufs.data(), 64,
                                   statuses.data());
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(statuses[3].ok());
  for (size_t i = 0; i < kObjects; ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
  }
}

TEST_P(PerSchemeTest, BatchingOffFallsBackToSequentialReads) {
  if (!SchemeSelected(GetParam())) GTEST_SKIP() << "CORM_SYNC_SCHEME filter";
  // A colocated context has no doorbell to amortize: DirectReadBatch runs
  // sequential DirectReads and posts no chain.
  core::CormNode node(NodeConfigFor(GetParam()));
  core::Context::Options colocated;
  colocated.local = true;
  auto ctx = core::Context::Create(&node, colocated);

  constexpr size_t kObjects = 4;
  std::vector<GlobalAddr> addrs;
  for (size_t i = 0; i < kObjects; ++i) {
    auto addr = ctx->Alloc(64);
    ASSERT_TRUE(addr.ok());
    std::vector<uint8_t> in(64);
    PatternFill(static_cast<int>(i), in.data(), in.size());
    ASSERT_TRUE(ctx->Write(&*addr, in.data(), in.size()).ok());
    addrs.push_back(*addr);
  }
  std::vector<uint8_t> bufs(kObjects * 64);
  std::vector<Status> statuses(kObjects);
  ASSERT_TRUE(ctx->DirectReadBatch(addrs.data(), kObjects, bufs.data(), 64,
                                   statuses.data())
                  .ok());
  for (size_t i = 0; i < kObjects; ++i) {
    EXPECT_TRUE(statuses[i].ok());
    EXPECT_TRUE(PatternCheck(static_cast<int>(i), bufs.data() + i * 64, 64));
  }
  EXPECT_EQ(ctx->stats().direct_read_batches, 0u);
  EXPECT_EQ(node.stats().doorbell_batches, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PerSchemeTest,
                         ::testing::Values(SchemeKind::kOptimistic,
                                           SchemeKind::kCasSpinlock),
                         [](const auto& info) {
                           return std::string(sync::SchemeName(info.param));
                         });

// --- Crashed-holder recovery (fault site sync.holder_crash) -----------------

class HolderCrashTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(HolderCrashTest, LeaseExpiryStealsTheCrashedHoldersSlot) {
  if (!SchemeSelected(GetParam())) GTEST_SKIP() << "CORM_SYNC_SCHEME filter";
  core::CormNode node(NodeConfigFor(GetParam()));
  auto victim = core::Context::Create(&node);
  auto survivor = core::Context::Create(&node);

  auto addr = victim->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(64), out(64);
  PatternFill(11, in.data(), in.size());

  // The victim's first release is swallowed: it "crashes" holding the
  // slot's lock word.
  sim::FaultInjector inj(1234);
  sim::FaultSchedule sched;
  sched.one_shot_at = 1;
  inj.Arm(sim::fault_sites::kSyncHolderCrash, sched);
  {
    sim::ScopedFaultInjector scoped(&inj);
    ASSERT_TRUE(victim->Write(&*addr, in.data(), in.size()).ok());
  }
  EXPECT_EQ(inj.FiredCount(sim::fault_sites::kSyncHolderCrash), 1u);

  // The survivor must not wedge: after one lease of watching the frozen
  // word it steals the slot and completes.
  PatternFill(12, in.data(), in.size());
  ASSERT_TRUE(survivor->Write(&*addr, in.data(), in.size()).ok());
  ASSERT_TRUE(survivor->DirectRead(*addr, out.data(), out.size()).ok());
  EXPECT_TRUE(PatternCheck(12, out.data(), out.size()));

  const core::ClientStats& cs = survivor->stats();
  EXPECT_GE(cs.sync_lock_conflicts, 1u);
  EXPECT_GE(cs.sync_lock_steals, 1u);
  EXPECT_GE(node.stats().sync_lock_steals, 1u);
}

TEST_P(HolderCrashTest, BoundedRetryConvertsWedgeToTimeout) {
  if (!SchemeSelected(GetParam())) GTEST_SKIP() << "CORM_SYNC_SCHEME filter";
  // Lease far beyond the retry budget: stealing is off the table, so the
  // only correct outcome is kTimeout (rule 8: never an unbounded wait).
  core::CormConfig config = NodeConfigFor(GetParam());
  config.sync_lease_ns = 10'000'000'000;
  core::CormNode node(config);
  auto victim = core::Context::Create(&node);

  core::Context::Options impatient;
  impatient.recovery_retry.deadline_ns = 20'000'000;
  auto waiter = core::Context::Create(&node, impatient);

  auto addr = victim->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> in(64);
  PatternFill(21, in.data(), in.size());

  sim::FaultInjector inj(99);
  sim::FaultSchedule sched;
  sched.one_shot_at = 1;
  inj.Arm(sim::fault_sites::kSyncHolderCrash, sched);
  {
    sim::ScopedFaultInjector scoped(&inj);
    ASSERT_TRUE(victim->Write(&*addr, in.data(), in.size()).ok());
  }

  Status st = waiter->Write(&*addr, in.data(), in.size());
  EXPECT_EQ(st.code(), StatusCode::kTimeout) << st.ToString();
  EXPECT_GE(waiter->stats().sync_lock_timeouts, 1u);
  EXPECT_GE(node.stats().sync_lock_timeouts, 1u);
}

INSTANTIATE_TEST_SUITE_P(LockSchemes, HolderCrashTest,
                         ::testing::Values(SchemeKind::kCasSpinlock),
                         [](const auto& info) {
                           return std::string(sync::SchemeName(info.param));
                         });

// --- DSM routing of batched reads -------------------------------------------

TEST(DsmBatchTest, BatchRoutesPerNodeRunsAndIsolatesDeadNodes) {
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.node_config.num_workers = 1;
  dsm::Cluster cluster(cfg);
  dsm::DsmContext ctx(&cluster);

  constexpr size_t kObjects = 8;
  std::vector<GlobalAddr> addrs;
  for (size_t i = 0; i < kObjects; ++i) {
    auto addr = ctx.AllocOn(static_cast<int>(i % 2), 64);
    ASSERT_TRUE(addr.ok());
    std::vector<uint8_t> in(64);
    PatternFill(static_cast<int>(i), in.data(), in.size());
    ASSERT_TRUE(ctx.Write(&*addr, in.data(), in.size()).ok());
    addrs.push_back(*addr);
  }

  std::vector<uint8_t> bufs(kObjects * 64);
  std::vector<Status> statuses(kObjects);
  ASSERT_TRUE(ctx.DirectReadBatch(addrs.data(), kObjects, bufs.data(), 64,
                                  statuses.data())
                  .ok());
  for (size_t i = 0; i < kObjects; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << i;
    EXPECT_TRUE(PatternCheck(static_cast<int>(i), bufs.data() + i * 64, 64));
  }

  // A dead node fails its runs with kNetworkError; the live node's entries
  // still complete.
  cluster.CrashNode(1);
  Status st = ctx.DirectReadBatch(addrs.data(), kObjects, bufs.data(), 64,
                                  statuses.data());
  EXPECT_FALSE(st.ok());
  for (size_t i = 0; i < kObjects; ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(statuses[i].ok()) << i;
    } else {
      EXPECT_EQ(statuses[i].code(), StatusCode::kNetworkError) << i;
    }
  }
}

// --- Torn-write visibility under concurrent chaos ---------------------------

// Writers rewrite each object's fixed pattern while readers DirectRead;
// with torn publishes and crashed holders injected, every *successful*
// read must still hand back a complete pattern — under every scheme,
// because validation layers beneath every lock protocol.
class SchemeChaosTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(SchemeChaosTest, NoTornReadEscapesUnderAnyScheme) {
  if (!SchemeSelected(GetParam())) GTEST_SKIP() << "CORM_SYNC_SCHEME filter";
  core::CormConfig config = NodeConfigFor(GetParam());
  config.num_workers = 2;
  config.sync_lease_ns = 500'000;
  core::CormNode node(config);

  constexpr size_t kObjects = 8;
  constexpr int kIters = 40;
  auto setup = core::Context::Create(&node);
  std::vector<GlobalAddr> addrs(kObjects);
  for (size_t i = 0; i < kObjects; ++i) {
    auto addr = setup->Alloc(192);
    ASSERT_TRUE(addr.ok());
    std::vector<uint8_t> in(192);
    PatternFill(static_cast<int>(i), in.data(), in.size());
    ASSERT_TRUE(setup->Write(&*addr, in.data(), in.size()).ok());
    addrs[i] = *addr;
  }

  sim::FaultInjector inj(4242);
  sim::FaultSchedule torn;
  torn.probability = 0.05;
  torn.delay_ns = 3000;  // extra lock-hold time per torn publish
  inj.Arm(sim::fault_sites::kTornWrite, torn);
  sim::FaultSchedule crash;
  crash.probability = 0.02;
  inj.Arm(sim::fault_sites::kSyncHolderCrash, crash);
  sim::ScopedFaultInjector scoped(&inj);

  std::atomic<int> torn_escapes{0};
  std::atomic<int> hard_errors{0};
  auto writer = [&] {
    auto ctx = core::Context::Create(&node);
    std::vector<uint8_t> in(192);
    for (int it = 0; it < kIters; ++it) {
      const size_t i = static_cast<size_t>(it) % kObjects;
      PatternFill(static_cast<int>(i), in.data(), in.size());
      GlobalAddr addr = addrs[i];
      Status st = ctx->Write(&addr, in.data(), in.size());
      if (!st.ok() && !Transient(st)) hard_errors.fetch_add(1);
    }
  };
  auto reader = [&] {
    auto ctx = core::Context::Create(&node);
    std::vector<uint8_t> out(192);
    for (int it = 0; it < kIters; ++it) {
      const size_t i = static_cast<size_t>(it * 3 + 1) % kObjects;
      Status st = ctx->DirectRead(addrs[i], out.data(), out.size());
      if (st.ok()) {
        if (!PatternCheck(static_cast<int>(i), out.data(), out.size())) {
          torn_escapes.fetch_add(1);
        }
      } else if (!Transient(st)) {
        hard_errors.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer);
  threads.emplace_back(writer);
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn_escapes.load(), 0);
  EXPECT_EQ(hard_errors.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeChaosTest,
                         ::testing::Values(SchemeKind::kOptimistic,
                                           SchemeKind::kCasSpinlock),
                         [](const auto& info) {
                           return std::string(sync::SchemeName(info.param));
                         });

}  // namespace
}  // namespace corm

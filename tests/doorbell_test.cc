// Doorbell (common/doorbell.h) and the worker park it drives (DESIGN.md
// §7.3). Two layers of lost-wakeup regression:
//
//  * the eventcount itself: a producer publishes and rings, a consumer arms,
//    re-polls and sleeps with a 10 s timeout, for 10k ping-pong rounds. A
//    lost wakeup is a sleep that runs to the timeout, which fails the test.
//  * the node: every source of worker work — an RPC, an inbox message, a
//    replicated-log record, ResumeService after PauseService — must reach a
//    *sleeping* worker through a ring, so the park ends on the ring
//    (worker_park_wakes) instead of waiting out the park cap.
//  * the spin budget: a worker kept busy by short request gaps stays awake
//    instead of parking once per request.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/doorbell.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "dsm/cluster.h"
#include "dsm/replication.h"

namespace corm {
namespace {

constexpr uint64_t kLongTimeoutNs = 10'000'000'000ULL;  // 10 s

TEST(DoorbellTest, WaitReturnsAtOnceWhenRungAfterArm) {
  Doorbell bell;
  const uint32_t key = bell.Arm();
  bell.Ring();
  // The key is stale: the wait must not sleep, whatever the timeout.
  EXPECT_EQ(bell.Wait(key, kLongTimeoutNs), Doorbell::WaitResult::kRung);
}

TEST(DoorbellTest, UnrungWaitTimesOut) {
  Doorbell bell;
  const uint32_t key = bell.Arm();
  EXPECT_EQ(bell.Wait(key, 1'000'000), Doorbell::WaitResult::kTimeout);
}

TEST(DoorbellTest, RingWithoutWaiterIsForgotten) {
  Doorbell bell;
  bell.Ring();  // nobody armed: no state is kept
  const uint32_t key = bell.Arm();
  EXPECT_EQ(bell.Wait(key, 1'000'000), Doorbell::WaitResult::kTimeout);
}

// Arms `bell`, re-checks `ready`, and sleeps only when it is still false.
// Returns false when a sleep ended without a ring — after 10 s, a lost
// wakeup (the peer publishes and rings within microseconds).
bool AwaitRung(Doorbell& bell, const std::function<bool()>& ready) {
  while (!ready()) {
    const uint32_t key = bell.Arm();
    if (ready()) {
      bell.Disarm();
      return true;
    }
    if (bell.Wait(key, kLongTimeoutNs) == Doorbell::WaitResult::kTimeout) {
      return false;
    }
  }
  return true;
}

TEST(DoorbellTest, NoLostWakeupOverTenThousandPingPongRounds) {
  constexpr uint64_t kRounds = 10'000;
  Doorbell to_consumer;
  Doorbell to_producer;
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> consumed{0};
  std::atomic<uint64_t> lost{0};

  std::thread consumer([&] {
    for (uint64_t r = 1; r <= kRounds; ++r) {
      if (!AwaitRung(to_consumer, [&] {
            return published.load(std::memory_order_acquire) >= r;
          })) {
        lost.fetch_add(1);
        return;
      }
      consumed.store(r, std::memory_order_release);
      to_producer.Ring();
    }
  });
  for (uint64_t r = 1; r <= kRounds; ++r) {
    published.store(r, std::memory_order_release);
    to_consumer.Ring();
    if (!AwaitRung(to_producer, [&] {
          return consumed.load(std::memory_order_acquire) >= r;
        })) {
      lost.fetch_add(1);
      break;
    }
  }
  consumer.join();
  EXPECT_EQ(lost.load(), 0u);
  EXPECT_EQ(consumed.load(), kRounds);
}

// --- Node level -------------------------------------------------------------

// Sleeps of a one-worker node that have started and not yet ended.
uint64_t SleepsInProgress(const core::NodeStats& s) {
  return s.worker_parks - s.worker_park_wakes - s.worker_park_timeouts;
}

// Waits (10 s bound) until the node's only worker is asleep on its doorbell.
bool AwaitAsleep(core::CormNode* node) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (SleepsInProgress(node->stats()) == 1) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return false;
}

// Runs `deliver` against a sleeping worker and reports whether the sleep
// ended on a ring. An attempt can miss only when the 1 ms park cap expires
// in the few microseconds between AwaitAsleep and the ring (the worker then
// finds the work on its next poll, with no ring needed); a producer that
// never rings misses every attempt. So the source passes when any of 50
// attempts ends on a ring.
bool DeliveredByRing(core::CormNode* node, const std::function<void()>& deliver,
                     const std::function<void()>& before = [] {}) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    before();
    if (!AwaitAsleep(node)) return false;
    const uint64_t wakes = node->stats().worker_park_wakes;
    deliver();
    if (node->stats().worker_park_wakes > wakes) return true;
  }
  return false;
}

core::CormConfig OneWorker() {
  core::CormConfig config;
  config.num_workers = 1;
  config.nic_msg_rate = 0;
  return config;
}

TEST(WorkerParkTest, RpcWakesSleepingWorker) {
  core::CormNode node(OneWorker());
  auto ctx = core::Context::Create(&node);
  auto addr = ctx->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> buf(64, 7);
  EXPECT_TRUE(DeliveredByRing(&node, [&] {
    ASSERT_TRUE(ctx->Write(&*addr, buf.data(), buf.size()).ok());
  }));
}

TEST(WorkerParkTest, InboxMessageWakesSleepingWorker) {
  core::CormNode node(OneWorker());
  auto ctx = core::Context::Create(&node);
  ASSERT_TRUE(ctx->Alloc(64).ok());
  auto cls = node.ClassForPayload(64);
  ASSERT_TRUE(cls.ok());
  // Compact() hands the leader a kCompact inbox message through Send().
  // A single block has nothing to merge; only the delivery matters here.
  EXPECT_TRUE(DeliveredByRing(&node, [&] { (void)node.Compact(*cls); }));
}

TEST(WorkerParkTest, ResumeServiceWakesSleepingWorker) {
  core::CormNode node(OneWorker());
  auto ctx = core::Context::Create(&node);
  auto addr = ctx->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> buf(64, 3);
  std::thread client;
  Status status;
  // While paused, the queued request's own ring wakes the worker, which
  // finds the node not serving and sleeps again; only ResumeService can
  // end that sleep. The push rings just after the request shows in the
  // queue, so wait for two more parks to begin: the second one starts
  // after the first ended, by which time the push's ring is spent.
  auto queue_request = [&] {
    node.PauseService();
    client = std::thread(
        [&] { status = ctx->Write(&*addr, buf.data(), buf.size()); });
    while (node.rpc_queue()->ApproxDepth() == 0) std::this_thread::yield();
    const uint64_t parks = node.stats().worker_parks;
    while (node.stats().worker_parks < parks + 2) std::this_thread::yield();
  };
  EXPECT_TRUE(DeliveredByRing(
      &node,
      [&] {
        node.ResumeService();
        client.join();
        EXPECT_TRUE(status.ok()) << status.ToString();
      },
      queue_request));
}

// A closed-loop client's next request comes microseconds after the last
// reply. The worker's spin budget (Worker::kSpinBeforeParkNs) keeps it
// awake across such gaps instead of parking, and paying a wake, per RPC.
TEST(WorkerParkTest, WorkerStaysAwakeAcrossShortRequestGaps) {
  core::CormNode node(OneWorker());
  auto ctx = core::Context::Create(&node);
  auto addr = ctx->Alloc(64);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> buf(64, 5);
  constexpr uint64_t kRpcs = 1000;
  const uint64_t parks = node.stats().worker_parks;
  for (uint64_t i = 0; i < kRpcs; ++i) {
    ASSERT_TRUE(ctx->Write(&*addr, buf.data(), buf.size()).ok());
    const auto gap_end =
        std::chrono::steady_clock::now() + std::chrono::microseconds(2);
    while (std::chrono::steady_clock::now() < gap_end) {
    }
  }
  EXPECT_LT(node.stats().worker_parks - parks, kRpcs / 2);
}

TEST(WorkerParkTest, ReplicatedLogRecordWakesSleepingBackup) {
  dsm::ClusterConfig config;
  config.num_nodes = 2;
  config.node_config = OneWorker();
  dsm::Cluster cluster(config);
  dsm::ReplicatedContext rctx(&cluster, 2);
  auto addr = rctx.Alloc(64);
  ASSERT_TRUE(addr.ok());
  ASSERT_EQ(addr->replicas.size(), 2u);
  // The backup serves no RPC for a replicated write: its only work is the
  // shipped record, which must wake it through the WRITE_WITH_IMM.
  core::CormNode* backup = cluster.node(dsm::NodeOf(addr->replicas[1]));
  std::vector<uint8_t> buf(64, 9);
  EXPECT_TRUE(DeliveredByRing(backup, [&] {
    ASSERT_TRUE(rctx.Write(&*addr, buf.data(), buf.size()).ok());
  }));
}

}  // namespace
}  // namespace corm

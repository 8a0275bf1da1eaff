// Microbenchmarks (google-benchmark) of the primitives underneath the
// figure reproductions: object layout scatter/gather, header CAS, block
// slot management, RNIC MTT access, and end-to-end client ops. These gauge
// the *simulator's own* CPU costs (not modeled fabric latencies), which
// matter for how long the figure benches take to run.

#include <benchmark/benchmark.h>

#include <vector>

#include "alloc/block.h"
#include "common/checksum.h"
#include "common/random.h"
#include "core/client.h"
#include "core/corm_node.h"
#include "core/object_layout.h"
#include "core/probability.h"
#include "sim/latency_model.h"

namespace corm {
namespace {

void BM_PayloadWrite(benchmark::State& state) {
  const auto slot_size = static_cast<uint32_t>(state.range(0));
  std::vector<uint8_t> slot(slot_size);
  std::vector<uint8_t> payload(core::PayloadCapacity(slot_size), 0xAB);
  for (auto _ : state) {
    core::WritePayload(slot.data(), slot_size, 1, payload.data(),
                       static_cast<uint32_t>(payload.size()));
    benchmark::DoNotOptimize(slot.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_PayloadWrite)->Arg(64)->Arg(256)->Arg(2048)->Arg(8192);

void BM_PayloadRead(benchmark::State& state) {
  const auto slot_size = static_cast<uint32_t>(state.range(0));
  std::vector<uint8_t> slot(slot_size, 0x5A);
  std::vector<uint8_t> out(core::PayloadCapacity(slot_size));
  for (auto _ : state) {
    core::ReadPayload(slot.data(), slot_size, out.data(),
                      static_cast<uint32_t>(out.size()));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_PayloadRead)->Arg(64)->Arg(256)->Arg(2048)->Arg(8192);

void BM_SnapshotConsistent(benchmark::State& state) {
  const auto slot_size = static_cast<uint32_t>(state.range(0));
  std::vector<uint8_t> slot(slot_size, 0);
  core::WritePayload(slot.data(), slot_size, 3, nullptr, 0);
  core::ObjectHeader h;
  h.version = 3;
  const uint64_t packed = h.Pack();
  std::memcpy(slot.data(), &packed, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SnapshotConsistent(slot.data(), slot_size));
  }
}
BENCHMARK(BM_SnapshotConsistent)->Arg(64)->Arg(2048)->Arg(8192);

// The data plane's integrity hash over one span. A replicated 64-B write
// checksums 72 B for its replica image (version + payload) and 144 B for
// each log record (header + image); 4096 B is about a 4 KiB kChecksum-mode
// slot's payload region.
void BM_Checksum(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> buf(n);
  Rng rng(7);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntegrityHash(n).Update(buf.data(), n).Finish());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Checksum)->Arg(72)->Arg(144)->Arg(4096);

void BM_HeaderCas(benchmark::State& state) {
  alignas(64) uint8_t slot[64] = {};
  core::ObjectHeader h;
  h.version = 1;
  core::StoreHeaderWord(slot, h.Pack());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ClaimHeader(
        slot, h.obj_id, core::LockState::kWriteLocked, /*spin_bound=*/0));
    core::ReleaseClaim(slot, core::LockState::kWriteLocked);
  }
}
BENCHMARK(BM_HeaderCas);

void BM_CompactionProbability(benchmark::State& state) {
  uint64_t b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::CormCompactionProbability(16, 256, b % 128, (b * 7) % 128));
    ++b;
  }
}
BENCHMARK(BM_CompactionProbability);

void BM_ClientDirectRead(benchmark::State& state) {
  sim::SetSimTimeScale(0.0);
  core::CormConfig config;
  config.num_workers = 2;
  core::CormNode node(config);
  auto ctx = core::Context::Create(&node);
  auto addrs = node.BulkAlloc(10'000, 24);
  Rng rng(1);
  std::vector<uint8_t> buf(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx->DirectRead((*addrs)[rng.Uniform(addrs->size())], buf.data(), 24));
  }
}
BENCHMARK(BM_ClientDirectRead);

void BM_ClientRpcRead(benchmark::State& state) {
  sim::SetSimTimeScale(0.0);
  core::CormConfig config;
  config.num_workers = 2;
  core::CormNode node(config);
  auto ctx = core::Context::Create(&node);
  auto addrs = node.BulkAlloc(10'000, 24);
  Rng rng(1);
  std::vector<uint8_t> buf(64);
  for (auto _ : state) {
    core::GlobalAddr addr = (*addrs)[rng.Uniform(addrs->size())];
    benchmark::DoNotOptimize(ctx->Read(&addr, buf.data(), 24));
  }
}
BENCHMARK(BM_ClientRpcRead);

void BM_AllocFree(benchmark::State& state) {
  sim::SetSimTimeScale(0.0);
  core::CormConfig config;
  config.num_workers = 2;
  core::CormNode node(config);
  auto ctx = core::Context::Create(&node);
  for (auto _ : state) {
    auto addr = ctx->Alloc(24);
    benchmark::DoNotOptimize(addr);
    Status st = ctx->Free(&*addr);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_AllocFree);

}  // namespace
}  // namespace corm

BENCHMARK_MAIN();

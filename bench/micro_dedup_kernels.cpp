// Component bench: throughput of the dedup substrate kernels (SHA-1 on
// each block function, Rabin chunking, LZSS) — sanity numbers for
// interpreting Figure 3.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "dedup/dedup.hpp"
#include "stm/api.hpp"
#include "stm/tbytes.hpp"

namespace {

using namespace adtm;  // NOLINT

const std::string& sample_input() {
  static const std::string input = dedup::make_synthetic_input(
      {.total_bytes = 1 << 20, .dup_fraction = 0.3, .seed = 77});
  return input;
}

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// One row per SHA-1 block function; the hasher itself uses the one
// detail::sha1_blocks() picked from CPUID.
void BM_Sha1(benchmark::State& state, dedup::detail::Sha1BlockFn blocks) {
  if (blocks == &dedup::detail::sha1_blocks_shani &&
      !dedup::detail::sha1_shani_supported()) {
    state.SkipWithError("CPU lacks the SHA extensions");
    return;
  }
  const std::string& input = sample_input();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dedup::detail::sha1_with(blocks, input.data(), input.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK_CAPTURE(BM_Sha1, portable, &dedup::detail::sha1_blocks_portable);
BENCHMARK_CAPTURE(BM_Sha1, shani, &dedup::detail::sha1_blocks_shani);

void BM_RabinChunking(benchmark::State& state) {
  const std::string& input = sample_input();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedup::chunk_lengths(as_bytes(input)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_RabinChunking);

void BM_LzssCompress(benchmark::State& state) {
  const std::string& input = sample_input();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedup::lzss_compress(as_bytes(input)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_LzssCompress);

// The pipeline's shape: one lzss_compress call per content-defined chunk
// (about 5 KiB each), so per-call setup counts as it does in dedup.
void BM_LzssCompressChunks(benchmark::State& state) {
  const std::string& input = sample_input();
  const std::vector<std::size_t> lengths =
      dedup::chunk_lengths(as_bytes(input));
  for (auto _ : state) {
    std::size_t offset = 0;
    for (const std::size_t len : lengths) {
      benchmark::DoNotOptimize(
          dedup::lzss_compress(as_bytes(input).subspan(offset, len)));
      offset += len;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_LzssCompressChunks);

void BM_LzssDecompress(benchmark::State& state) {
  const std::string& input = sample_input();
  const auto compressed = dedup::lzss_compress(as_bytes(input));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedup::lzss_decompress(compressed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_LzssDecompress);

void BM_TbytesInstrumentedRead(benchmark::State& state) {
  // The instrumented-read cost model: reading a chunk through the
  // transactional path vs directly (the STM overhead on Compress).
  stm::init({.backend = "tl2"});
  const std::string chunk = sample_input().substr(0, 8192);
  stm::tbytes data{as_bytes(chunk)};
  for (auto _ : state) {
    stm::atomic([&](stm::Tx& tx) {
      benchmark::DoNotOptimize(data.read(tx));
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_TbytesInstrumentedRead);

void BM_TbytesDirectRead(benchmark::State& state) {
  const std::string chunk = sample_input().substr(0, 8192);
  stm::tbytes data{as_bytes(chunk)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.read_direct());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_TbytesDirectRead);

}  // namespace

BENCHMARK_MAIN();

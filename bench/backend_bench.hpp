// Backend selection for the google-benchmark binaries. state.range(0)
// carries the backend's index in stm::backends() (== its obs_index()), so
// ->Apply(AllBackends) gives one run per backend, in table order, with no
// per-bench edits.
#pragma once

#include <benchmark/benchmark.h>

#include <cstddef>

#include "stm/api.hpp"
#include "stm/backend.hpp"

namespace adtm::bench {

inline const stm::Backend* backend_of(const benchmark::State& state) {
  return &stm::backends()[static_cast<std::size_t>(state.range(0))];
}

inline void init_backend(const benchmark::State& state) {
  stm::Config cfg;
  cfg.backend = backend_of(state)->id;
  stm::init(cfg);
}

inline void set_backend_label(benchmark::State& state) {
  state.SetLabel(backend_of(state)->name);
}

// BENCHMARK(...)->Apply(adtm::bench::AllBackends)
inline void AllBackends(benchmark::internal::Benchmark* b) {
  b->DenseRange(
      0, static_cast<std::int64_t>(stm::backends().size()) - 1);
}

}  // namespace adtm::bench

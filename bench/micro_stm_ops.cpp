// Component bench: raw STM operation costs per algorithm — the
// per-transaction instrumentation overhead the paper cites to explain
// defer's single-thread latency in Figure 2(a).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "bench/backend_bench.hpp"
#include "bench/bench_util.hpp"
#include "obs/trace.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace {

using namespace adtm;  // NOLINT

using adtm::bench::AllBackends;

void init_algo(const benchmark::State& state) {
  adtm::bench::init_backend(state);
}

void set_label(benchmark::State& state) {
  adtm::bench::set_backend_label(state);
}

void BM_EmptyTransaction(benchmark::State& state) {
  init_algo(state);
  for (auto _ : state) {
    stm::atomic([](stm::Tx&) {});
  }
  set_label(state);
}
BENCHMARK(BM_EmptyTransaction)->Apply(AllBackends);

void BM_ReadOnlyTx(benchmark::State& state) {
  init_algo(state);
  constexpr int kVars = 16;
  std::vector<std::unique_ptr<stm::tvar<long>>> vars;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(std::make_unique<stm::tvar<long>>(i));
  }
  for (auto _ : state) {
    const long sum = stm::atomic([&](stm::Tx& tx) {
      long s = 0;
      for (auto& v : vars) s += v->get(tx);
      return s;
    });
    benchmark::DoNotOptimize(sum);
  }
  set_label(state);
}
BENCHMARK(BM_ReadOnlyTx)->Apply(AllBackends);

void BM_WriterTx(benchmark::State& state) {
  init_algo(state);
  constexpr int kVars = 8;
  std::vector<std::unique_ptr<stm::tvar<long>>> vars;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(std::make_unique<stm::tvar<long>>(0));
  }
  long n = 0;
  for (auto _ : state) {
    ++n;
    stm::atomic([&](stm::Tx& tx) {
      for (auto& v : vars) v->set(tx, n);
    });
  }
  set_label(state);
}
BENCHMARK(BM_WriterTx)->Apply(AllBackends);

// Direct-mode barrier cost per word: the uninstrumented accesses of a CGL
// transaction and of a serial-irrevocable one (TL2 after
// become_irrevocable). One iteration is one tvar access, and every
// iteration runs inside a single transaction, so the rows hold the
// barrier alone, without begin or commit.
constexpr std::int64_t kDirectCgl = 0;
constexpr std::int64_t kDirectIrrevocableTl2 = 1;

void DirectModes(benchmark::internal::Benchmark* b) {
  b->Arg(kDirectCgl)->Arg(kDirectIrrevocableTl2);
}

template <typename Access>
void run_direct(benchmark::State& state, Access access) {
  const bool irrevocable = state.range(0) == kDirectIrrevocableTl2;
  stm::Config cfg;
  cfg.backend = irrevocable ? "tl2" : "cgl";
  stm::init(cfg);
  stm::atomic([&](stm::Tx& tx) {
    // The speculative TL2 attempt restarts here, before the timing loop.
    if (irrevocable) stm::become_irrevocable(tx);
    for (auto _ : state) access(tx);
  });
  state.SetLabel(irrevocable ? "TL2/irrevocable" : "CGL");
}

constexpr std::size_t kDirectVars = 64;  // a power of two

void BM_DirectRead(benchmark::State& state) {
  auto vars = std::make_unique<stm::tvar<long>[]>(kDirectVars);
  std::size_t i = 0;
  run_direct(state, [&](stm::Tx& tx) {
    benchmark::DoNotOptimize(vars[i].get(tx));
    i = (i + 1) & (kDirectVars - 1);
  });
}
BENCHMARK(BM_DirectRead)->Apply(DirectModes);

void BM_DirectWrite(benchmark::State& state) {
  auto vars = std::make_unique<stm::tvar<long>[]>(kDirectVars);
  std::size_t i = 0;
  long n = 0;
  run_direct(state, [&](stm::Tx& tx) {
    vars[i].set(tx, ++n);
    i = (i + 1) & (kDirectVars - 1);
  });
  benchmark::DoNotOptimize(vars[0].load_direct());
}
BENCHMARK(BM_DirectWrite)->Apply(DirectModes);

// Every backend at one thread and at min(4, cores) threads. Multi-thread
// runs give each thread its own tvar (the counter is a local), so the
// rows measure per-commit costs without data conflicts; thread 0 does the
// setup, which the other threads wait out at the timing-loop barrier.
void OneAndFourThreads(benchmark::internal::Benchmark* b) {
  AllBackends(b);
  b->Threads(1);
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (const int n = std::min(4, cores); n > 1) b->Threads(n);
}

void BM_CounterIncrement(benchmark::State& state) {
  if (state.thread_index() == 0) init_algo(state);
  stm::tvar<long> counter{0};
  for (auto _ : state) {
    stm::atomic([&](stm::Tx& tx) { counter.set(tx, counter.get(tx) + 1); });
  }
  set_label(state);
}
BENCHMARK(BM_CounterIncrement)->Apply(OneAndFourThreads);

void BM_UninstrumentedBaseline(benchmark::State& state) {
  // The cost floor: the same counter increment with no TM at all.
  long counter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++counter);
  }
}
BENCHMARK(BM_UninstrumentedBaseline);

void BM_LargeReadFootprint(benchmark::State& state) {
  // Read-set scaling: cost of a transaction reading state.range(1) vars.
  init_algo(state);
  const auto count = static_cast<std::size_t>(state.range(1));
  std::vector<std::unique_ptr<stm::tvar<long>>> vars;
  for (std::size_t i = 0; i < count; ++i) {
    vars.push_back(std::make_unique<stm::tvar<long>>(1));
  }
  for (auto _ : state) {
    const long sum = stm::atomic([&](stm::Tx& tx) {
      long s = 0;
      for (auto& v : vars) s += v->get(tx);
      return s;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(std::string(adtm::bench::backend_of(state)->name) + "/" +
                 std::to_string(count) + "vars");
}

// Read-set scaling only makes sense for backends with per-read tracking
// or validation cost: the redo/undo families plus the value-validating
// and pessimistic ones — named here, resolved to table indices.
void ReadFootprintArgs(benchmark::internal::Benchmark* b) {
  for (const char* id : {"tl2", "eager", "norec", "2pl"}) {
    const adtm::stm::Backend* be = adtm::stm::find_backend(id);
    for (const std::int64_t vars : {64, 512, 4096}) {
      b->Args({be->obs_index(), vars});
    }
  }
}
BENCHMARK(BM_LargeReadFootprint)->Apply(ReadFootprintArgs);

void BM_CounterIncrementTraced(benchmark::State& state) {
  // The tracing-overhead pair: BM_CounterIncrement runs with the gate
  // closed (the production default — one relaxed load per event site);
  // this variant runs the same transaction with the full event pipeline
  // live. Their ratio is the cost of enabling; BM_CounterIncrement vs the
  // pre-obs build is the disabled-overhead acceptance bound.
  if (state.thread_index() == 0) {
    init_algo(state);
    obs::enable();
  }
  stm::tvar<long> counter{0};
  for (auto _ : state) {
    stm::atomic([&](stm::Tx& tx) { counter.set(tx, counter.get(tx) + 1); });
  }
  if (state.thread_index() == 0) {
    obs::disable();
    obs::clear();
  }
  set_label(state);
}
BENCHMARK(BM_CounterIncrementTraced)->Apply(OneAndFourThreads);

// Forwards console output unchanged while capturing every run for the
// machine-readable BENCH_stm.json record.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(adtm::bench::BenchReport& report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      report_.add(run.benchmark_name(), run.GetAdjustedRealTime(),
                  static_cast<std::uint64_t>(run.iterations),
                  run.report_label);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  adtm::bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  adtm::bench::BenchReport report("micro_stm_ops");
  CaptureReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!report.write()) {
    std::fprintf(stderr, "micro_stm_ops: failed to write bench report\n");
    return 1;
  }
  return 0;
}

// Figure 3(a): PARSEC dedup with atomic_defer, 2-8 threads (paper §6.2).
//
// Series, as in the paper:
//   STM / HTM                 — transactionalized dedup (Wang et al.):
//                               output in irrevocable transactions,
//                               Compress inside transactions
//   STM+DeferIO / HTM+DeferIO — output moved to atomic_defer (Listing 7)
//   STM+DeferAll/ HTM+DeferAll — pure Compress also deferred
//   Pthread                   — the original lock-based pipeline
//
// STM = TL2; HTM = the simulated best-effort HTM (capacity-limited, retry
// budget 2, serial fallback). Input is synthetic (see DESIGN.md); size via
// ADTM_DEDUP_MB (default 4 MiB). Expected shape from the paper: the TM
// baselines degrade (serialization in HTM, quiescence drag in STM); DeferIO
// removes the irrevocability collapse; DeferAll is competitive with
// pthread locks (~1.7x over STM baseline, ~2.7x over HTM baseline there).
//
// Every run fsyncs every 16 records. A second table gives each cell's
// fsync count and the seconds spent inside fsync, so the disk's share of
// a cell can be read beside its time.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "dedup/dedup.hpp"
#include "io/temp_dir.hpp"
#include "stm/api.hpp"

namespace {

using namespace adtm;         // NOLINT
using namespace adtm::bench;  // NOLINT

struct Series {
  const char* name;
  dedup::SyncMode mode;
  const char* backend;  // backend id; ignored for Pthread
};

dedup::PipelineStats run_one(const std::string& input, const Series& series,
                             unsigned workers) {
  stm::Config cfg;
  cfg.backend = series.backend;
  // TSX-like: small capacity so compress-in-tx overflows, 2 retries.
  cfg.htm_capacity = 64;
  cfg.htm_retries = 2;
  stm::init(cfg);

  io::TempDir dir("adtm-fig3a");
  dedup::Options opts;
  opts.mode = series.mode;
  opts.workers = workers;
  opts.fsync_every = 16;
  return dedup::dedup_stream(input, dir.file("out.dd"), opts);
}

}  // namespace

int main() {
  const std::uint64_t mb = env_u64("ADTM_DEDUP_MB", 4);
  const std::string input = dedup::make_synthetic_input(
      {.total_bytes = static_cast<std::size_t>(mb) << 20,
       .dup_fraction = 0.4,
       .seed = 42});

  const std::vector<Series> series = {
      {"STM", dedup::SyncMode::TmIrrevoc, "tl2"},
      {"HTM", dedup::SyncMode::TmIrrevoc, "htmsim"},
      {"STM+DeferIO", dedup::SyncMode::TmDeferIO, "tl2"},
      {"HTM+DeferIO", dedup::SyncMode::TmDeferIO, "htmsim"},
      {"STM+DeferAll", dedup::SyncMode::TmDeferAll, "tl2"},
      {"HTM+DeferAll", dedup::SyncMode::TmDeferAll, "htmsim"},
      {"Pthread", dedup::SyncMode::Pthread, "tl2"},
  };

  std::printf("fig3a_dedup: input %llu MiB synthetic (ADTM_DEDUP_MB)\n",
              static_cast<unsigned long long>(mb));

  std::vector<std::string> columns;
  for (const auto& s : series) columns.emplace_back(s.name);
  SeriesTable table(columns);
  const unsigned thread_counts[] = {2, 4, 8};
  std::vector<std::vector<dedup::PipelineStats>> runs;  // [row][series]
  for (const unsigned threads : thread_counts) {
    std::vector<double> row;
    auto& stats = runs.emplace_back();
    for (const auto& s : series) {
      stats.push_back(run_one(input, s, threads));
      row.push_back(stats.back().seconds);
    }
    table.add_row(threads, row);
  }
  table.print(
      "Figure 3(a): dedup execution time (s) vs pipeline worker threads");

  std::printf("\nfsyncs per run / seconds inside fsync\n%8s", "threads");
  for (const auto& c : columns) std::printf("  %12s", c.c_str());
  std::printf("\n");
  for (std::size_t r = 0; r < runs.size(); ++r) {
    std::printf("%8u", thread_counts[r]);
    for (const auto& st : runs[r]) {
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%llu/%.3f",
                    static_cast<unsigned long long>(st.fsyncs), st.fsync_s);
      std::printf("  %12s", cell);
    }
    std::printf("\n");
  }
  return 0;
}

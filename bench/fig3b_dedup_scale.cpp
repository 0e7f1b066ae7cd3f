// Figure 3(b): dedup at higher thread counts (paper §6.2, 36-core Xeon).
//
// Series, as in the paper: STM (baseline), STM-Best and HTM-Best (output
// and pure functions moved out with atomic_defer), and Pthread. The
// paper's baseline HTM never scales and is omitted there too. Expected
// shape: baselines collapse (the paper reports ~10x), Best variants track
// pthread locks.
#include <cstdio>

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
  const char* backend;  // backend id
};

double run_one(const std::string& input, const Series& series,
               unsigned workers) {
  stm::Config cfg;
  cfg.backend = series.backend;
  cfg.htm_capacity = 64;
  cfg.htm_retries = 2;
  stm::init(cfg);

  io::TempDir dir("adtm-fig3b");
  dedup::Options opts;
  opts.mode = series.mode;
  opts.workers = workers;
  opts.fsync_every = 16;
  const dedup::PipelineStats stats =
      dedup::dedup_stream(input, dir.file("out.dd"), opts);
  return stats.seconds;
}

}  // namespace

int main() {
  const std::uint64_t mb = env_u64("ADTM_DEDUP_MB", 4);
  const std::string input = dedup::make_synthetic_input(
      {.total_bytes = static_cast<std::size_t>(mb) << 20,
       .dup_fraction = 0.4,
       .seed = 1234});

  const std::vector<Series> series = {
      {"HTM-Best", dedup::SyncMode::TmDeferAll, "htmsim"},
      {"STM-Best", dedup::SyncMode::TmDeferAll, "tl2"},
      {"Pthread", dedup::SyncMode::Pthread, "tl2"},
      {"STM", dedup::SyncMode::TmIrrevoc, "tl2"},
  };

  std::printf("fig3b_dedup_scale: input %llu MiB synthetic (ADTM_DEDUP_MB)\n",
              static_cast<unsigned long long>(mb));

  std::vector<std::string> columns;
  for (const auto& s : series) columns.emplace_back(s.name);
  SeriesTable table(columns);
  for (const unsigned threads : {4u, 8u, 16u, 32u}) {
    std::vector<double> row;
    for (const auto& s : series) {
      row.push_back(run_one(input, s, threads));
    }
    table.add_row(threads, row);
  }
  table.print(
      "Figure 3(b): dedup execution time (s) at higher thread counts");
  return 0;
}

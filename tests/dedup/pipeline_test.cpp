// End-to-end dedup pipeline: restore(dedup(x)) == x across every sync mode
// and TM algorithm, plus dedup-effectiveness and stats invariants.
#include "dedup/pipeline.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>
#include <tuple>

#include "dedup/format.hpp"
#include "dedup/synth_input.hpp"
#include "faultsim/faultsim.hpp"
#include "io/posix_file.hpp"
#include "io/temp_dir.hpp"
#include "stm/api.hpp"

namespace adtm::dedup {
namespace {

class PipelineTest
    : public ::testing::TestWithParam<std::tuple<SyncMode, std::string>> {
 protected:
  void SetUp() override {
    stm::Config cfg;
    cfg.backend = std::get<1>(GetParam());
    // Keep the HTM capacity small enough that compress-in-tx overflows,
    // as on real hardware (exercises the fallback path in the pipeline).
    cfg.htm_capacity = 64;
    stm::init(cfg);
  }

  Options options(unsigned workers = 3) const {
    Options o;
    o.mode = std::get<0>(GetParam());
    o.workers = workers;
    o.fsync_every = 8;
    return o;
  }

  io::TempDir dir_{"adtm-pipeline"};
};

TEST_P(PipelineTest, RoundTripSmall) {
  const std::string input = make_synthetic_input(
      {.total_bytes = 200 * 1024, .dup_fraction = 0.4, .seed = 1});
  const std::string out = dir_.file("out.dd");
  const PipelineStats stats = dedup_stream(input, out, options());
  EXPECT_EQ(restore_str(io::read_file(out)), input);
  EXPECT_EQ(stats.bytes_in, input.size());
  EXPECT_GT(stats.chunks, 0u);
  EXPECT_EQ(stats.chunks, stats.unique_chunks + stats.dup_chunks);
}

TEST_P(PipelineTest, RoundTripWithHeavyDuplication) {
  const std::string input = make_synthetic_input(
      {.total_bytes = 300 * 1024, .dup_fraction = 0.85, .seed = 2});
  const std::string out = dir_.file("out.dd");
  const PipelineStats stats = dedup_stream(input, out, options());
  EXPECT_EQ(restore_str(io::read_file(out)), input);
  // Duplication must be detected.
  EXPECT_GT(stats.dup_chunks, 0u);
  // And exploited: output smaller than a no-dedup compression would be.
  EXPECT_LT(stats.bytes_out, stats.bytes_in);
}

TEST_P(PipelineTest, RoundTripNoDuplication) {
  const std::string input = make_synthetic_input(
      {.total_bytes = 150 * 1024, .dup_fraction = 0.0, .seed = 3});
  const std::string out = dir_.file("out.dd");
  const PipelineStats stats = dedup_stream(input, out, options());
  EXPECT_EQ(restore_str(io::read_file(out)), input);
  EXPECT_EQ(stats.unique_chunks, stats.chunks);
}

TEST_P(PipelineTest, EmptyInputProducesValidContainer) {
  const std::string out = dir_.file("out.dd");
  const PipelineStats stats = dedup_stream(std::string{}, out, options());
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_EQ(restore_str(io::read_file(out)), "");
}

TEST_P(PipelineTest, SingleWorker) {
  const std::string input = make_synthetic_input(
      {.total_bytes = 100 * 1024, .dup_fraction = 0.5, .seed = 4});
  const std::string out = dir_.file("out.dd");
  dedup_stream(input, out, options(/*workers=*/1));
  EXPECT_EQ(restore_str(io::read_file(out)), input);
}

TEST_P(PipelineTest, ManyWorkers) {
  const std::string input = make_synthetic_input(
      {.total_bytes = 200 * 1024, .dup_fraction = 0.5, .seed = 5});
  const std::string out = dir_.file("out.dd");
  dedup_stream(input, out, options(/*workers=*/8));
  EXPECT_EQ(restore_str(io::read_file(out)), input);
}

TEST_P(PipelineTest, MultiFragmentInputsRoundTrip) {
  // Force many coarse fragments so the Fragment->Refine handoff and the
  // (fragment, chunk) reordering actually engage.
  const std::string input = make_synthetic_input(
      {.total_bytes = 300 * 1024, .dup_fraction = 0.5, .seed = 77});
  Options o = options();
  o.fragment_bytes = 16 * 1024;  // ~19 fragments
  const std::string out = dir_.file("out.dd");
  const PipelineStats stats = dedup_stream(input, out, o);
  EXPECT_EQ(restore_str(io::read_file(out)), input);
  EXPECT_GT(stats.chunks, 19u);
}

TEST_P(PipelineTest, TinyFragmentsStillCorrect) {
  const std::string input = make_synthetic_input(
      {.total_bytes = 64 * 1024, .dup_fraction = 0.3, .seed = 78});
  Options o = options();
  o.fragment_bytes = 1024;  // smaller than a typical chunk
  const std::string out = dir_.file("out.dd");
  dedup_stream(input, out, o);
  EXPECT_EQ(restore_str(io::read_file(out)), input);
}

TEST_P(PipelineTest, OutputIsDeterministicAcrossModes) {
  // The container content depends only on the input (chunking and claim
  // order are sequence-ordered), so every mode must produce an equivalent
  // stream that restores identically. We check restore-equality rather
  // than byte-equality to stay robust to claim races... but with a single
  // reorder thread claims are in sequence order, so bytes match too.
  const std::string input = make_synthetic_input(
      {.total_bytes = 120 * 1024, .dup_fraction = 0.6, .seed = 6});
  const std::string out = dir_.file("out.dd");
  dedup_stream(input, out, options());

  Options pthread_opts = options();
  pthread_opts.mode = SyncMode::Pthread;
  const std::string ref = dir_.file("ref.dd");
  dedup_stream(input, ref, pthread_opts);

  EXPECT_EQ(io::read_file(out), io::read_file(ref));
}

// The flush policy is part of the workload: one fsync per fsync_every
// records plus the final one, in every mode, whoever issues them.
TEST_P(PipelineTest, FsyncCountFollowsFlushPolicy) {
  const std::string input = make_synthetic_input(
      {.total_bytes = 200 * 1024, .dup_fraction = 0.4, .seed = 9});
  const std::string out = dir_.file("out.dd");
  Options o = options();
  const PipelineStats stats = dedup_stream(input, out, o);
  EXPECT_EQ(restore_str(io::read_file(out)), input);
  EXPECT_GT(stats.chunks, o.fsync_every);
  EXPECT_EQ(stats.fsyncs, stats.chunks / o.fsync_every + 1);
  EXPECT_GE(stats.fsync_s, 0.0);

  o.fsync_every = 0;
  const PipelineStats end_only = dedup_stream(input, out, o);
  EXPECT_EQ(restore_str(io::read_file(out)), input);
  EXPECT_EQ(end_only.fsyncs, 1u);
}

// A pass over a path that holds a longer container reuses its file: the
// new container is cut to its own length, published under the path, and
// makes no fsync beyond the flush policy's.
TEST_P(PipelineTest, SmallerContainerReplacesLargerOne) {
  const std::string out = dir_.file("out.dd");
  const std::string large = make_synthetic_input(
      {.total_bytes = 300 * 1024, .dup_fraction = 0.2, .seed = 11});
  const PipelineStats first = dedup_stream(large, out, options());

  const std::string small = make_synthetic_input(
      {.total_bytes = 100 * 1024, .dup_fraction = 0.4, .seed = 12});
  const Options o = options();
  const PipelineStats stats = dedup_stream(small, out, o);
  ASSERT_LT(stats.bytes_out, first.bytes_out);
  EXPECT_EQ(restore_str(io::read_file(out)), small);
  EXPECT_EQ(std::filesystem::file_size(out), stats.bytes_out);
  EXPECT_FALSE(std::filesystem::exists(out + ".partial"));
  EXPECT_EQ(stats.fsyncs, stats.chunks / o.fsync_every + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PipelineTest,
    ::testing::Values(
        std::tuple{SyncMode::Pthread, std::string("TL2")},
        std::tuple{SyncMode::TmIrrevoc, std::string("TL2")},
        std::tuple{SyncMode::TmIrrevoc, std::string("Eager")},
        std::tuple{SyncMode::TmIrrevoc, std::string("HTMSim")},
        std::tuple{SyncMode::TmDeferIO, std::string("TL2")},
        std::tuple{SyncMode::TmDeferIO, std::string("HTMSim")},
        std::tuple{SyncMode::TmDeferAll, std::string("TL2")},
        std::tuple{SyncMode::TmDeferAll, std::string("Eager")},
        std::tuple{SyncMode::TmDeferAll, std::string("HTMSim")},
        std::tuple{SyncMode::TmIrrevoc, std::string("NOrec")},
        std::tuple{SyncMode::TmDeferIO, std::string("NOrec")},
        std::tuple{SyncMode::TmDeferAll, std::string("NOrec")}),
    [](const auto& info) {
      std::string name = std::string(sync_mode_name(std::get<0>(info.param))) +
                         "_" + std::get<1>(info.param);
      std::erase_if(name, [](char c) {
        return !std::isalnum(static_cast<unsigned char>(c)) && c != '_';
      });
      return name;
    });

// A failed write or fsync in any stage stops the pipeline: dedup_stream
// joins every stage and rethrows the error instead of terminating or
// hanging. Each failing pass runs over a path that already holds a
// container, publishes nothing, and leaves a staging file that the next
// clean pass reuses.
class PipelineFaultTest : public ::testing::TestWithParam<SyncMode> {
 protected:
  void SetUp() override {
    stm::init({.backend = "tl2"});
    clean_ = dedup_stream(input_, out_, options());
  }

  Options options() const {
    Options o;
    o.mode = GetParam();
    o.workers = 3;
    o.fsync_every = 4;
    return o;
  }

  void expect_eio(const faultsim::Plan& plan) {
    {
      const faultsim::FaultScope scope(plan);
      try {
        dedup_stream(input_, out_, options());
        ADD_FAILURE() << "dedup_stream returned despite the injected EIO";
      } catch (const std::system_error& e) {
        EXPECT_EQ(e.code().value(), EIO) << e.what();
      }
      EXPECT_EQ(faultsim::engine().injected(plan.op), 1u);
    }
    EXPECT_FALSE(std::filesystem::exists(out_)) << "failed pass published";
    EXPECT_TRUE(std::filesystem::exists(out_ + ".partial"));

    const PipelineStats again = dedup_stream(input_, out_, options());
    EXPECT_EQ(restore_str(io::read_file(out_)), input_);
    EXPECT_EQ(again.bytes_out, clean_.bytes_out);
    EXPECT_FALSE(std::filesystem::exists(out_ + ".partial"));
  }

  io::TempDir dir_{"adtm-pipeline-fault"};
  const std::string out_ = dir_.file("out.dd");
  const std::string input_ = make_synthetic_input(
      {.total_bytes = 256 * 1024, .dup_fraction = 0.4, .seed = 10});
  PipelineStats clean_;  // the pass that put a container at out_
};

TEST_P(PipelineFaultTest, FsyncErrorIsRethrown) {
  expect_eio({.op = faultsim::Op::Fsync,
              .fault = faultsim::Fault::error(EIO),
              .skip = 3});
}

// The last fsync of the pass fails. In TmDeferAll the sync stage may
// still be behind the output thread, so that call can be an intermediate
// fsync rather than the final one; either way nothing is published.
TEST_P(PipelineFaultTest, LastFsyncErrorPublishesNothing) {
  expect_eio({.op = faultsim::Op::Fsync,
              .fault = faultsim::Fault::error(EIO),
              .skip = clean_.fsyncs - 1});
}

TEST_P(PipelineFaultTest, WriteErrorIsRethrown) {
  // The first write is the container header, before any stage starts.
  expect_eio({.op = faultsim::Op::Write,
              .fault = faultsim::Fault::error(EIO),
              .skip = 5});
}

INSTANTIATE_TEST_SUITE_P(Modes, PipelineFaultTest,
                         ::testing::Values(SyncMode::Pthread,
                                           SyncMode::TmDeferAll),
                         [](const auto& info) {
                           return info.param == SyncMode::Pthread
                                      ? std::string("Pthread")
                                      : std::string("TmDeferAll");
                         });

}  // namespace
}  // namespace adtm::dedup

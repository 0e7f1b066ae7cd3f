// The dedup pipeline (PARSEC dedup kernel reimplementation).
//
// Stages, as in the original benchmark:
//   Fragment/Refine  — content-defined chunking (producer)
//   Deduplicate      — global chunk-store lookup/insert   [critical section]
//   Compress         — LZSS of unique chunks              [long / pure]
//   Reorder + Write  — emit records in input order        [output section]
//
// Four synchronization variants (SyncMode) reproduce the paper's Figure 3
// configurations; see chunk_store.hpp. For TM variants, select the STM or
// simulated-HTM algorithm with stm::init() before calling dedup_stream.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "dedup/chunk_store.hpp"
#include "dedup/rabin.hpp"

namespace adtm::dedup {

struct Options {
  SyncMode mode = SyncMode::Pthread;
  unsigned workers = 4;           // refine/dedup/compress stage threads
  ChunkParams chunking{};
  // Coarse Fragment-stage granularity: the producer splits the input into
  // fragments of this size, and the parallel workers refine each into
  // content-defined chunks (chunks never span fragments, as in PARSEC).
  std::size_t fragment_bytes = 1 << 20;
  std::size_t queue_capacity = 128;
  std::size_t fsync_every = 16;   // fsync after every N records (0 = end only)
};

struct PipelineStats {
  std::uint64_t chunks = 0;
  std::uint64_t unique_chunks = 0;
  std::uint64_t dup_chunks = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  // Output-file fsyncs: records / fsync_every, plus the final one. The
  // directory fsync after publishing is not counted.
  std::uint64_t fsyncs = 0;
  double fsync_s = 0.0;      // time inside fsync, summed over the calls
  double seconds = 0.0;
};

// Deduplicate + compress `input` into the container file at `output_path`.
//
// Durability: after every fsync_every-th record an fsync covers the
// records written so far, and a final fsync covers the whole container
// before dedup_stream returns. Pthread and TmIrrevoc issue each fsync
// inline, under the lock or irrevocable transaction that writes the
// record, so records up to N are durable before record N+1 is written.
// TmDeferIO and TmDeferAll queue it to a sync stage (one thread, one
// fsync per request, in order): records up to N are durable once that
// stage's request for N completes, while the output stage goes on.
//
// Publishing: the container is written to a staging file beside the
// output, `<output_path>.partial`. If a regular file is at output_path
// when the pass starts, it is renamed to that name first (and the
// directory fsynced), and the new container overwrites its blocks from
// offset 0 instead of truncating them away. The output stage cuts the
// file to the container's length before the final fsync, so that fsync
// also makes the length durable.
// Once every stage has joined without error, the staging file is renamed
// onto output_path and the directory is fsynced. So output_path holds
// either no container or a complete, durable one. The previous container
// is gone from the start of the pass, as with a truncating open. One
// writer per path is assumed, and a symlink at output_path is replaced,
// not followed.
//
// The first exception from any stage (an I/O error, say) stops the
// pipeline: every stage drains and is joined, then dedup_stream rethrows
// it. Nothing is published then: output_path holds no container, and the
// incomplete staging file is left for the next pass to reuse.
PipelineStats dedup_stream(std::span<const std::byte> input,
                           const std::string& output_path,
                           const Options& opts = {});

// Convenience for strings (tests/examples).
PipelineStats dedup_stream(const std::string& input,
                           const std::string& output_path,
                           const Options& opts = {});

}  // namespace adtm::dedup

#include "dedup/pipeline.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/timing.hpp"
#include "defer/atomic_defer.hpp"
#include "dedup/bounded_queue.hpp"
#include "dedup/format.hpp"
#include "dedup/lzss.hpp"
#include "dedup/packet.hpp"
#include "io/posix_file.hpp"
#include "stm/api.hpp"

namespace adtm::dedup {
namespace {

// Coarse unit of work from the Fragment stage: a fixed-size slice of the
// input that a worker refines into content-defined chunks.
struct Fragment {
  std::uint64_t seq = 0;
  std::span<const std::byte> bytes;
};

// The deferred-output modes hand their intermediate fsyncs to the sync
// stage; the baselines keep them inline, under the lock or irrevocable
// transaction that orders the output.
bool has_sync_stage(const Options& o) {
  return o.fsync_every != 0 && (o.mode == SyncMode::TmDeferIO ||
                                o.mode == SyncMode::TmDeferAll);
}

// Open the staging file, first moving the previous container there, so
// the new one overwrites its blocks in place. Truncating or unlinking a
// fsynced file frees its blocks, and on a disk that discards freed blocks
// that can cost more than the whole pass; a rename frees nothing. The
// directory fsync makes the move durable before the first overwrite, so
// a crash cannot leave a half-overwritten container under output_path.
// Only a regular file is moved: anything else at output_path (a symlink,
// say) stays until the publishing rename replaces it.
io::PosixFile open_staging(const std::string& output_path,
                           const std::string& staging) {
  struct stat st{};
  if (::lstat(output_path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
    io::rename_file(output_path, staging);
    io::fsync_parent_dir(output_path);
  }
  return io::PosixFile::open_rw(staging);
}

struct PipelineCtx {
  explicit PipelineCtx(const Options& o, const std::string& output_path)
      : opts(o),
        store(o.mode),
        fragments(o.queue_capacity),
        done(o.queue_capacity),
        syncs(o.queue_capacity),
        staging(output_path + ".partial"),
        out(open_staging(output_path, staging)) {}

  // fsync the output, counting the call and its time.
  void sync_out() {
    const Timer t;
    out.sync();
    fsync_ns.fetch_add(t.elapsed_ns(), std::memory_order_relaxed);
    fsyncs.fetch_add(1, std::memory_order_relaxed);
  }

  // Record the first failure of any stage and close every queue, so each
  // stage stops blocking on its neighbours and runs to its end.
  void fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lk(error_mutex);
      if (!error) error = std::move(e);
    }
    fragments.close();
    done.close();
    syncs.close();
  }

  const Options& opts;
  ChunkStore store;
  BoundedQueue<Fragment> fragments;
  BoundedQueue<PacketPtr> done;
  // Sync stage requests, in emission order: request N asks for an fsync
  // that covers records 1..N, all of which were written before it was
  // queued.
  BoundedQueue<std::uint64_t> syncs;
  const std::string staging;  // the container's name until it is published
  io::PosixFile out;
  std::mutex output_mutex;  // Pthread mode: the original output-stage lock
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> unique{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> fsyncs{0};
  std::atomic<std::uint64_t> fsync_ns{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // first stage failure; rethrown by dedup_stream
};

// Run one stage, turning an escaping exception into a pipeline failure
// instead of std::terminate.
template <typename Stage>
void guarded(PipelineCtx& ctx, Stage&& stage) noexcept {
  try {
    stage(ctx);
  } catch (...) {
    ctx.fail(std::current_exception());
  }
}

// ---------------------------------------------------------------------------
// Compress stage (unique chunks only)
// ---------------------------------------------------------------------------

void compress_chunk(PipelineCtx& ctx, Packet& pkt) {
  switch (ctx.opts.mode) {
    case SyncMode::Pthread: {
      // Plain reads, no instrumentation: the lock-based baseline.
      const std::vector<std::byte> raw = pkt.data.read_direct();
      ctx.store.publish_compressed(*pkt.entry, lzss_compress(raw));
      return;
    }
    case SyncMode::TmIrrevoc:
    case SyncMode::TmDeferIO: {
      // Wang et al.'s transactionalization: Compress runs *inside* a
      // transaction. The chunk bytes are read through the instrumented
      // path, so the transaction's footprint covers the whole chunk —
      // in STM this long transaction delays every concurrent writer's
      // quiescence; in (simulated) HTM it overflows capacity and
      // serializes (paper §6.2).
      std::vector<std::byte> compressed;
      stm::atomic([&](stm::Tx& tx) {
        const std::vector<std::byte> raw = pkt.data.read(tx);
        compressed = lzss_compress(raw);
      });
      ctx.store.publish_compressed(*pkt.entry, std::move(compressed));
      return;
    }
    case SyncMode::TmDeferAll: {
      // The paper's fix: Compress is pure, so defer it. The chunk buffer
      // and its entry are locked for the duration; transactions that
      // touch them suspend, everyone else proceeds — and the transaction
      // itself is tiny (no capacity overflow, no quiescence drag).
      stm::atomic([&](stm::Tx& tx) {
        atomic_defer(
            tx,
            [&ctx, &pkt] {
              const std::vector<std::byte> raw = pkt.data.read_direct();
              ctx.store.publish_compressed(*pkt.entry, lzss_compress(raw));
            },
            pkt, *pkt.entry);
      });
      return;
    }
  }
}

// Refine + Deduplicate + Compress, fused in each worker (the heavy,
// parallel part of the pipeline).
void worker_loop(PipelineCtx& ctx) {
  while (auto item = ctx.fragments.pop()) {
    const Fragment frag = *item;
    // Refine stage: content-defined chunking within the fragment.
    const std::vector<std::size_t> lengths =
        chunk_lengths(frag.bytes, ctx.opts.chunking);
    ctx.chunks.fetch_add(lengths.size(), std::memory_order_relaxed);
    std::size_t offset = 0;
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      auto pkt = std::make_unique<Packet>();
      pkt->frag = frag.seq;
      pkt->idx = static_cast<std::uint32_t>(i);
      pkt->last_in_frag = (i + 1 == lengths.size());
      const std::span<const std::byte> bytes =
          frag.bytes.subspan(offset, lengths[i]);
      pkt->data.assign(bytes);
      offset += lengths[i];

      // Fingerprint, then the Deduplicate stage's critical section. No
      // other thread has the packet yet, so its buffer holds exactly
      // `bytes`: hash those instead of a read_direct() copy.
      pkt->digest = sha1(bytes);
      const auto [entry, inserted] = ctx.store.lookup_or_insert(pkt->digest);
      pkt->entry = entry;
      pkt->compressor = inserted;
      if (inserted) {
        ctx.unique.fetch_add(1, std::memory_order_relaxed);
        try {
          compress_chunk(ctx, *pkt);
        } catch (...) {
          // Raise the ready flag anyway: the output stage may already
          // wait on this entry for an earlier duplicate, and the failed
          // pass is never restored.
          ctx.store.publish_compressed(*entry, {});
          throw;
        }
      }
      // Closed only when another stage has failed.
      if (!ctx.done.push(std::move(pkt))) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Reorder + write stage
// ---------------------------------------------------------------------------

// Emit the n-th record (from 1). Every fsync_every-th record is followed
// by an fsync that covers it.
void emit_packet(PipelineCtx& ctx, Packet& pkt, std::uint64_t n) {
  const bool do_sync =
      ctx.opts.fsync_every != 0 && n % ctx.opts.fsync_every == 0;
  switch (ctx.opts.mode) {
    case SyncMode::Pthread: {
      const bool full = ctx.store.claim_write(*pkt.entry);
      const std::vector<std::byte> record =
          full ? encode_unique(pkt.digest, pkt.entry->compressed())
               : encode_ref(pkt.digest);
      // The original dedup performs output while holding a lock (§6.2).
      std::lock_guard<std::mutex> lk(ctx.output_mutex);
      ctx.out.write_fully(record.data(), record.size());
      if (do_sync) ctx.sync_out();
      ctx.bytes_out.fetch_add(record.size(), std::memory_order_relaxed);
      return;
    }
    case SyncMode::TmIrrevoc: {
      // Lock -> transaction: the write forces irrevocability, which
      // serializes every concurrent transaction in the program.
      stm::atomic([&](stm::Tx& tx) {
        const bool full = ctx.store.claim_write_in(tx, *pkt.entry);
        stm::become_irrevocable(tx);
        const std::vector<std::byte> record =
            full ? encode_unique(pkt.digest, pkt.entry->compressed())
                 : encode_ref(pkt.digest);
        ctx.out.write_fully(record.data(), record.size());
        if (do_sync) ctx.sync_out();
        ctx.bytes_out.fetch_add(record.size(), std::memory_order_relaxed);
      });
      return;
    }
    case SyncMode::TmDeferIO:
    case SyncMode::TmDeferAll: {
      // Listing 7: the packet is deferrable; moving pipeline_out into a
      // deferred operation is a one-line change that preserves write
      // ordering and error handling without serializing anyone. The
      // epilogue only queues its fsync: the sync stage issues it, so the
      // output thread and the packet's lock never wait on the disk.
      stm::atomic([&](stm::Tx& tx) {
        // Subscribe the packet's lock before claim_write_in's tvar write:
        // a contended acquire retries, and retrying after a write is
        // illegal under direct-update modes. The atomic_defer below then
        // re-acquires reentrantly and can no longer block.
        pkt.subscribe(tx);
        const bool full = ctx.store.claim_write_in(tx, *pkt.entry);
        atomic_defer(
            tx,
            [&ctx, &pkt, full, do_sync, n] {
              const std::vector<std::byte> record =
                  full ? encode_unique(pkt.digest, pkt.entry->compressed())
                       : encode_ref(pkt.digest);
              ctx.out.write_fully(record.data(), record.size());
              if (do_sync) ctx.syncs.push(n);
              ctx.bytes_out.fetch_add(record.size(),
                                      std::memory_order_relaxed);
            },
            pkt);
      });
      return;
    }
  }
}

void output_loop(PipelineCtx& ctx) {
  // Reorder by (fragment, chunk index); last_in_frag advances fragments.
  using Key = std::pair<std::uint64_t, std::uint32_t>;
  std::map<Key, PacketPtr> reorder;
  Key expected{0, 0};
  std::uint64_t records = 0;
  while (auto item = ctx.done.pop()) {
    const Key key{(*item)->frag, (*item)->idx};
    reorder.emplace(key, std::move(*item));
    while (!reorder.empty() && reorder.begin()->first == expected) {
      PacketPtr pkt = std::move(reorder.begin()->second);
      reorder.erase(reorder.begin());
      emit_packet(ctx, *pkt, ++records);
      expected = pkt->last_in_frag ? Key{pkt->frag + 1, 0}
                                   : Key{pkt->frag, pkt->idx + 1};
    }
  }
  // Cut off what is left of a longer previous container. The final fsync,
  // issued here in every mode, then makes the length durable too.
  ctx.out.truncate(sizeof(kMagic) +
                   ctx.bytes_out.load(std::memory_order_relaxed));
  ctx.sync_out();
}

// Sync stage: one fsync per request, in request order.
void sync_loop(PipelineCtx& ctx) {
  while (ctx.syncs.pop()) ctx.sync_out();
}

}  // namespace

PipelineStats dedup_stream(std::span<const std::byte> input,
                           const std::string& output_path,
                           const Options& opts) {
  Timer timer;
  PipelineCtx ctx(opts, output_path);

  // Magic header first, before any records.
  ctx.out.write_fully(kMagic, sizeof(kMagic));

  std::vector<std::thread> workers;
  const unsigned n_workers = opts.workers == 0 ? 1 : opts.workers;
  workers.reserve(n_workers);
  for (unsigned i = 0; i < n_workers; ++i) {
    workers.emplace_back([&ctx] { guarded(ctx, worker_loop); });
  }
  std::thread output([&ctx] { guarded(ctx, output_loop); });
  std::thread sync;
  if (has_sync_stage(opts)) {
    sync = std::thread([&ctx] { guarded(ctx, sync_loop); });
  }

  // Fragment stage: coarse fixed-size slices feed the parallel refiners.
  PipelineStats stats;
  stats.bytes_in = input.size();
  const std::size_t frag_bytes =
      opts.fragment_bytes == 0 ? (1u << 20) : opts.fragment_bytes;
  guarded(ctx, [&](PipelineCtx& c) {
    std::uint64_t frag_seq = 0;
    for (std::size_t offset = 0; offset < input.size();
         offset += frag_bytes) {
      const std::size_t len = std::min(frag_bytes, input.size() - offset);
      const Fragment frag{frag_seq++, input.subspan(offset, len)};
      // Closed early only when another stage has failed.
      if (!c.fragments.push(frag)) return;
    }
  });
  // Each queue closes once its producers are done; the sync stage's
  // producer is the output thread.
  ctx.fragments.close();
  for (auto& w : workers) w.join();
  ctx.done.close();
  output.join();
  ctx.syncs.close();
  if (sync.joinable()) sync.join();
  if (ctx.error) std::rethrow_exception(ctx.error);

  // Publish the complete, durable container, then make the rename durable.
  ctx.out.close();
  io::rename_file(ctx.staging, output_path);
  io::fsync_parent_dir(output_path);

  stats.chunks = ctx.chunks.load();
  stats.unique_chunks = ctx.unique.load();
  stats.dup_chunks = stats.chunks - stats.unique_chunks;
  stats.bytes_out = ctx.bytes_out.load() + sizeof(kMagic);
  stats.fsyncs = ctx.fsyncs.load();
  stats.fsync_s = static_cast<double>(ctx.fsync_ns.load()) * 1e-9;
  stats.seconds = timer.elapsed_s();
  return stats;
}

PipelineStats dedup_stream(const std::string& input,
                           const std::string& output_path,
                           const Options& opts) {
  return dedup_stream(
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(input.data()), input.size()),
      output_path, opts);
}

}  // namespace adtm::dedup

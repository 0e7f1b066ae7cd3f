// adtm — atomic-deferral transactional memory.
//
// Umbrella header: the public API surface in one include. Applications
// include this and nothing else from the library:
//
//   #include "adtm.hpp"
//
// and link the targets for the subsystems they use (adtm_stm and
// adtm_defer for the core; adtm_io / adtm_txlog / adtm_wal / ... for the
// storage layers). Including a subsystem's header costs nothing at link
// time unless its symbols are used.
//
// The layering, bottom to top:
//
//   common/    Deadline, RuntimeConfig (ADTM_* knobs), stats, timing, RNG
//   obs/       transaction tracing + abort taxonomy (always compiled,
//              runtime-gated; see DESIGN.md "Observability")
//   stm/       the TM runtime: atomic(), retry(), tvar<T>, Config/Algo
//   defer/     atomic deferral (the paper's contribution): atomic_defer,
//              Deferrable, TxLock, TxCondVar, failure policies
//   liveness/  watchdog, stall reports, deadlock detection
//   io/ ...    storage subsystems built on deferral: files, fd pool,
//              transaction log, WAL, durable values, kv-cache, dedup
#pragma once

// --- foundation ------------------------------------------------------------
#include "common/backoff.hpp"
#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "common/runtime_config.hpp"
#include "common/stats.hpp"
#include "common/timing.hpp"

// --- observability ---------------------------------------------------------
#include "obs/trace.hpp"

// --- transactional memory --------------------------------------------------
#include "stm/api.hpp"
#include "stm/backend.hpp"
#include "stm/config.hpp"
#include "stm/tvar.hpp"

// --- atomic deferral -------------------------------------------------------
#include "defer/atomic_defer.hpp"
#include "defer/deferrable.hpp"
#include "defer/failure_policy.hpp"
#include "defer/ordered_writer.hpp"
#include "defer/txcondvar.hpp"
#include "defer/txlock.hpp"

// --- liveness --------------------------------------------------------------
#include "liveness/watchdog.hpp"

// --- fault injection (testing) ---------------------------------------------
#include "faultsim/faultsim.hpp"

// --- transactional containers ----------------------------------------------
#include "containers/hashmap.hpp"
#include "containers/queue.hpp"
#include "containers/rbtree.hpp"

// --- storage subsystems ----------------------------------------------------
#include "dedup/dedup.hpp"
#include "durable/durable.hpp"
#include "fdpool/async_io.hpp"
#include "fdpool/fd_pool.hpp"
#include "io/defer_file.hpp"
#include "io/posix_file.hpp"
#include "io/temp_dir.hpp"
#include "kvcache/tx_cache.hpp"
#include "txlog/txlog.hpp"
#include "wal/wal.hpp"

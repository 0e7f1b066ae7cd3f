// dedup_tool: a command-line front end for the dedup pipeline — the
// PARSEC dedup workload as a usable utility.
//
//   ./dedup_tool compress <in> <out> [--mode pthread|tm|deferio|deferall]
//                [--algo <backend>] [--workers N]
//
// --algo takes any STM backend (stm::backends() ids or display names:
// tl2, eager, cgl, htmsim, norec, 2pl).
//   ./dedup_tool restore <in> <out>
//   ./dedup_tool demo     (synthesizes input, round-trips all modes)
#include <cstdio>
#include <cstring>
#include <string>

#include "adtm.hpp"

using namespace adtm;  // NOLINT: example brevity

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dedup_tool compress <in> <out> [--mode "
               "pthread|tm|deferio|deferall] [--algo BACKEND] "
               "[--workers N]\n"
               "  dedup_tool restore <in> <out>\n"
               "  dedup_tool verify <in>\n"
               "  dedup_tool demo\n");
  return 2;
}

bool parse_mode(const std::string& s, dedup::SyncMode* out) {
  if (s == "pthread") *out = dedup::SyncMode::Pthread;
  else if (s == "tm") *out = dedup::SyncMode::TmIrrevoc;
  else if (s == "deferio") *out = dedup::SyncMode::TmDeferIO;
  else if (s == "deferall") *out = dedup::SyncMode::TmDeferAll;
  else return false;
  return true;
}

bool parse_algo(const std::string& s, std::string* out) {
  // Any registered backend by id or display name ("htm" kept as a
  // convenience alias for the simulated-HTM family).
  const stm::Backend* b = stm::find_backend(s == "htm" ? "htmsim" : s);
  if (b == nullptr) return false;
  *out = b->id;
  return true;
}

void report(const dedup::PipelineStats& stats) {
  std::printf(
      "chunks=%llu unique=%llu dup=%llu in=%llu out=%llu ratio=%.2f "
      "time=%.3fs\n",
      static_cast<unsigned long long>(stats.chunks),
      static_cast<unsigned long long>(stats.unique_chunks),
      static_cast<unsigned long long>(stats.dup_chunks),
      static_cast<unsigned long long>(stats.bytes_in),
      static_cast<unsigned long long>(stats.bytes_out),
      stats.bytes_out > 0
          ? static_cast<double>(stats.bytes_in) /
                static_cast<double>(stats.bytes_out)
          : 0.0,
      stats.seconds);
}

int cmd_compress(int argc, char** argv) {
  if (argc < 4) return usage();
  dedup::Options opts;
  opts.mode = dedup::SyncMode::TmDeferAll;
  std::string backend = "tl2";
  for (int i = 4; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--mode" && parse_mode(value, &opts.mode)) continue;
    if (flag == "--algo" && parse_algo(value, &backend)) continue;
    if (flag == "--workers") {
      opts.workers = static_cast<unsigned>(std::strtoul(value.c_str(),
                                                        nullptr, 10));
      continue;
    }
    return usage();
  }
  stm::Config cfg;
  cfg.backend = backend;
  stm::init(cfg);

  const std::string input = io::read_file(argv[2]);
  const dedup::PipelineStats stats =
      dedup::dedup_stream(input, argv[3], opts);
  std::printf("mode=%s algo=%s ", sync_mode_name(opts.mode),
              stm::current_backend()->name);
  report(stats);
  return 0;
}

int cmd_restore(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string container = io::read_file(argv[2]);
  io::write_file(argv[3], dedup::restore_str(container));
  std::printf("restored %s -> %s\n", argv[2], argv[3]);
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string container = io::read_file(argv[2]);
  try {
    // restore() re-checks every record's SHA-1 against its payload, so a
    // successful pass verifies container integrity end to end.
    const std::string restored = dedup::restore_str(container);
    std::printf("%s: OK (%zu container bytes -> %zu original bytes)\n",
                argv[2], container.size(), restored.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: CORRUPT (%s)\n", argv[2], e.what());
    return 1;
  }
}

int cmd_demo() {
  const std::string input = dedup::make_synthetic_input(
      {.total_bytes = 1 << 20, .dup_fraction = 0.5, .seed = 7});
  io::TempDir dir("dedup-demo");
  bool all_ok = true;
  for (const dedup::SyncMode mode :
       {dedup::SyncMode::Pthread, dedup::SyncMode::TmIrrevoc,
        dedup::SyncMode::TmDeferIO, dedup::SyncMode::TmDeferAll}) {
    stm::init({.backend = "tl2"});
    dedup::Options opts;
    opts.mode = mode;
    opts.workers = 4;
    const std::string out = dir.file("demo.dd");
    const dedup::PipelineStats stats = dedup::dedup_stream(input, out, opts);
    const bool ok = dedup::restore_str(io::read_file(out)) == input;
    std::printf("%-12s round-trip %s  ", sync_mode_name(mode),
                ok ? "ok " : "BAD");
    report(stats);
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "compress") return cmd_compress(argc, argv);
  if (cmd == "restore") return cmd_restore(argc, argv);
  if (cmd == "verify") return cmd_verify(argc, argv);
  if (cmd == "demo") return cmd_demo();
  return usage();
}

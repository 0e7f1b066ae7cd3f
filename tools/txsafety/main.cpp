// txsafety: whole-repo static analyzer for the atomic-deferral contract.
//
// Usage:
//   txsafety list
//   txsafety <check>|all [paths...] [options]
//
// Options:
//   --root DIR          repo root to scan (default: cwd)
//   --baseline FILE     baseline of accepted findings
//                       (default: tools/txsafety/baseline.txt under root)
//   --no-baseline       ignore any baseline file
//   --write-baseline    rewrite the baseline with the current findings
//   --quiet             suppress the per-check OK lines
//
// With explicit paths, scope filters are bypassed: the named files/dirs are
// scanned for the requested check regardless of the check's default scope
// (this is how the fixture corpus under tests/analysis/ drives the checks).
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace fs = std::filesystem;
using txsafety::Analyzer;
using txsafety::Corpus;
using txsafety::Finding;

namespace {

bool source_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".cpp" || e == ".cc" || e == ".cxx" || e == ".hpp" ||
         e == ".h" || e == ".inl";
}

bool skip_dir(const std::string& name) {
  return name == ".git" || name.rfind("build", 0) == 0 ||
         name == "fixtures";
}

std::string rel_path(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path r = fs::relative(p, root, ec);
  const fs::path& use = (ec || r.empty()) ? p : r;
  return use.generic_string();
}

void add_file(Corpus& corpus, const fs::path& p, const fs::path& root) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return;
  std::ostringstream ss;
  ss << in.rdbuf();
  corpus.add(txsafety::lex(rel_path(p, root), ss.str()));
}

void walk(Corpus& corpus, const fs::path& dir, const fs::path& root) {
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_directory(ec)) {
      if (skip_dir(it->path().filename().string())) it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file(ec) && source_ext(it->path()))
      add_file(corpus, it->path(), root);
  }
}

int usage() {
  std::cerr << "usage: txsafety <check>|all|list [paths...] [--root DIR]\n"
               "                [--baseline FILE | --no-baseline]\n"
               "                [--write-baseline] [--quiet]\n"
               "checks:\n";
  for (const auto& c : Analyzer::checks())
    std::cerr << "  " << c.name << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();

  std::string root = ".";
  std::string baseline_path;
  bool no_baseline = false, write_baseline = false, quiet = false;
  std::string what;
  std::vector<std::string> paths;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--root" && i + 1 < args.size()) {
      root = args[++i];
    } else if (a == "--baseline" && i + 1 < args.size()) {
      baseline_path = args[++i];
    } else if (a == "--no-baseline") {
      no_baseline = true;
    } else if (a == "--write-baseline") {
      write_baseline = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "txsafety: unknown option '" << a << "'\n";
      return usage();
    } else if (what.empty()) {
      what = a;
    } else {
      paths.push_back(a);
    }
  }
  if (what.empty()) return usage();

  if (what == "list") {
    for (const auto& c : Analyzer::checks())
      std::cout << c.name << "\n    " << c.what << "\n";
    return 0;
  }

  std::vector<std::string> selected;
  if (what == "all") {
    for (const auto& c : Analyzer::checks()) selected.push_back(c.name);
  } else {
    if (!Analyzer::is_check(what)) {
      std::cerr << "txsafety: unknown check '" << what << "'\n";
      return usage();
    }
    selected.push_back(what);
  }

  const fs::path rootp(root);
  Corpus corpus;
  const bool scoped = paths.empty();
  if (scoped) {
    for (const char* d : {"src", "tests", "bench", "examples", "tools"}) {
      const fs::path dir = rootp / d;
      std::error_code ec;
      if (fs::is_directory(dir, ec)) walk(corpus, dir, rootp);
    }
  } else {
    for (const auto& p : paths) {
      const fs::path fp(p);
      std::error_code ec;
      if (fs::is_directory(fp, ec))
        walk(corpus, fp, rootp);
      else if (fs::is_regular_file(fp, ec))
        add_file(corpus, fp, rootp);
      else {
        std::cerr << "txsafety: no such file or directory: " << p << "\n";
        return 2;
      }
    }
  }
  if (corpus.files.empty()) {
    std::cerr << "txsafety: nothing to scan under '" << root << "'\n";
    return 2;
  }
  corpus.index();

  if (baseline_path.empty())
    baseline_path = (rootp / "tools/txsafety/baseline.txt").string();
  std::set<std::string> baseline;
  if (!no_baseline && !write_baseline) {
    std::ifstream in(baseline_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      baseline.insert(line);
    }
  }

  Analyzer az(std::move(corpus));
  const std::size_t nfiles = az.corpus().files.size();
  int findings = 0;
  std::set<std::string> fingerprints;
  for (const std::string& check : selected) {
    std::vector<Finding> found = az.run(check, scoped);
    std::size_t shown = 0;
    for (const Finding& fd : found) {
      fingerprints.insert(fd.fingerprint());
      if (baseline.count(fd.fingerprint()) != 0) continue;
      ++shown;
      ++findings;
      std::cout << "txsafety[" << fd.check << "]: " << fd.path << ":"
                << fd.line << ": " << fd.message << "\n";
      for (const std::string& hop : fd.chain)
        std::cout << "    via: " << hop << "\n";
    }
    if (shown == 0 && !quiet)
      std::cout << "OK " << check << ": no findings (" << nfiles
                << " files scanned)\n";
  }

  if (write_baseline) {
    std::ofstream outb(baseline_path, std::ios::trunc);
    if (!outb) {
      std::cerr << "txsafety: cannot write baseline " << baseline_path
                << "\n";
      return 2;
    }
    outb << "# txsafety baseline: accepted findings, one fingerprint per "
            "line (check|path|context)\n";
    for (const auto& fp : fingerprints) outb << fp << "\n";
    std::cout << "txsafety: wrote " << fingerprints.size()
              << " fingerprint(s) to " << baseline_path << "\n";
    return 0;
  }
  return findings == 0 ? 0 : 1;
}

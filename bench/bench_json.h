// Shared JSON output path for the bench binaries: every BENCH_*.json
// file is built with the project's structural JsonWriter (src/util/json.h)
// instead of hand-rolled string pasting, so escaping and number
// formatting are uniform across benches and the runtime stats dump —
// and everything round-trips through util::json_parse (pinned by
// tests/util/json_test.cpp).
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "ml/matrix.h"
#include "util/json.h"

namespace nfv::bench {

/// HEAD of the source checkout the bench was built from, with a "-dirty"
/// suffix when its work tree has local changes; "unknown" when that is
/// not a git work tree or git is unavailable.
inline std::string source_git_sha() {
  std::FILE* pipe = ::popen("git -C '" NFV_SOURCE_DIR
                            "' describe --always --dirty --abbrev=40"
                            " 2>/dev/null",
                            "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  const bool read = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  const int status = ::pclose(pipe);
  std::string sha = read ? buf : "";
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return status == 0 && !sha.empty() ? sha : "unknown";
}

/// The host block every BENCH_*.json row is compared by (the same fields
/// as the perfbench ledger's provenance line): cores, kernel tier, build
/// type and commit. Call inside the document's top-level object.
inline void write_provenance(nfv::util::JsonWriter& w) {
  w.key("provenance").begin_object();
  w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("simd_tier", nfv::ml::simd_kernels_enabled() ? "avx2+fma" : "baseline");
  w.kv("build_type", NFV_BUILD_TYPE);
  w.kv("git_sha", source_git_sha());
  w.end_object();
}

/// Write a completed JSON document to `path`. Returns false (with a
/// message on stderr) when the file cannot be opened or the writer's
/// structure was left unbalanced.
inline bool write_json_file(const std::string& path,
                            const nfv::util::JsonWriter& writer) {
  if (!writer.complete()) {
    std::cerr << "json writer incomplete for " << path << "\n";
    return false;
  }
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  os << writer.str() << "\n";
  std::cerr << "wrote " << path << "\n";
  return true;
}

}  // namespace nfv::bench

// Shared helpers for the figure/table reproduction binaries: fixed-width
// table printing, a tiny flag parser (--full switches the scaled-down
// default workloads to the paper's exact sizes), and the machine-readable
// result line every bench emits (JsonReport — the observability CI diffs
// its keys against a committed baseline).
#pragma once

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace flare::bench {

/// Peak resident set size of this process in bytes (0 if unavailable).
/// Linux reports ru_maxrss in KiB.  JsonReport::emit() appends this to
/// every bench report as `peak_rss_bytes` — the scale plane's memory
/// trajectory — and tools/diff_bench_keys.py treats the key as purely
/// informational (it varies with allocator and machine).
inline u64 peak_rss_bytes() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<u64>(ru.ru_maxrss) * 1024;
}

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

inline void print_title(const char* id, const char* what) {
  std::printf("\n==============================================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("==============================================================================\n");
}

inline void print_note(const char* note) { std::printf("  %s\n", note); }

/// Exit code of a bench that verifies its results: prints the failure line
/// and returns 1 when any result check failed, 0 otherwise.
inline int exit_status(bool all_correct) {
  if (all_correct) return 0;
  std::printf("  a result check FAILED -> FAIL\n");
  return 1;
}

inline std::string fmt_tbps(f64 bps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%6.2f", bps / 1e12);
  return buf;
}

inline std::string fmt_mib(f64 bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%8.2f", bytes / (1024.0 * 1024.0));
  return buf;
}

inline std::string fmt_kib(f64 bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%7.2f", bytes / 1024.0);
  return buf;
}

/// Machine-readable bench output: insertion-ordered key/value pairs,
/// emitted as ONE line `BENCH_JSON {...}` so harnesses can grep it out of
/// the human-readable tables.  Doubles format via the same recipe as the
/// metrics exporters (integral values print as integers, everything else
/// as %.17g), so reruns of a deterministic bench emit identical bytes.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) { add("bench", std::move(bench)); }

  JsonReport& add(const std::string& key, const std::string& v) {
    entries_.emplace_back(key, "\"" + escaped(v) + "\"");
    return *this;
  }
  JsonReport& add(const std::string& key, const char* v) {
    return add(key, std::string(v));
  }
  JsonReport& add(const std::string& key, bool v) {
    entries_.emplace_back(key, v ? "true" : "false");
    return *this;
  }
  JsonReport& add(const std::string& key, u64 v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    entries_.emplace_back(key, buf);
    return *this;
  }
  JsonReport& add(const std::string& key, u32 v) {
    return add(key, static_cast<u64>(v));
  }
  JsonReport& add(const std::string& key, int v) {
    return add(key, static_cast<u64>(v < 0 ? 0 : v));
  }
  JsonReport& add(const std::string& key, f64 v) {
    char buf[40];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else if (std::isinf(v)) {
      std::snprintf(buf, sizeof(buf), "%s", v > 0 ? "1e999" : "-1e999");
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    entries_.emplace_back(key, buf);
    return *this;
  }

  std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i != 0) out += ",";
      out += "\"" + escaped(entries_[i].first) + "\":" + entries_[i].second;
    }
    out += "}";
    return out;
  }

  /// Prints the single `BENCH_JSON {...}` line (with a leading newline so
  /// it never glues onto a table row), appending the informational
  /// peak_rss_bytes measurement last — the one key exempt from the
  /// bit-identical-rerun property.
  void emit() {
    add("peak_rss_bytes", peak_rss_bytes());
    std::printf("\nBENCH_JSON %s\n", to_json().c_str());
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> entries_;
};

inline std::string fmt_size(u64 bytes) {
  char buf[32];
  if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "%lluMiB",
                  static_cast<unsigned long long>(bytes / kMiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluKiB",
                  static_cast<unsigned long long>(bytes / kKiB));
  }
  return buf;
}

}  // namespace flare::bench

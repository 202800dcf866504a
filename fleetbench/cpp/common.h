// Shared helpers for the fleet benchmark: clocks, a seeded RNG,
// order statistics, least squares, the in-memory span log and a tiny JSON
// writer.
#ifndef FLEETBENCH_COMMON_H
#define FLEETBENCH_COMMON_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace fleetbench {

/// Steady-clock nanoseconds (the clock every span and latency uses).
std::uint64_t now_ns();
/// CPU time of the calling thread / the whole process, in nanoseconds.
std::uint64_t thread_cpu_ns();
std::uint64_t process_cpu_ns();
/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mib();

/// splitmix64: 8 bytes of state, so every device can own its own stream
/// and replay the same round sequence for a given seed regardless of how
/// rounds interleave in time.
struct rng {
  std::uint64_t state = 0;
  explicit rng(std::uint64_t seed = 0) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Mixes a seed with a salt into an independent stream seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty input.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Ordinary least squares y = intercept + slope * x.
struct line_fit {
  double intercept = 0;
  double slope = 0;
};
line_fit least_squares(const std::vector<double>& x,
                       const std::vector<double>& y);

/// One timed interval recorded from outside the program. Spans of one
/// round share `round`; `parent` is the id of the enclosing span (0 for a
/// root).
struct span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t round = 0;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Spans kept in memory while the benchmark runs and written out once at
/// the end, so recording costs one vector append.
class span_log {
 public:
  explicit span_log(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t add(std::uint64_t parent, std::uint64_t round,
                    const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
    return record(reserve(), parent, round, name, start_ns, end_ns);
  }
  /// Reserve an id for a span recorded after its children.
  std::uint64_t reserve() { return enabled_ ? next_id_++ : 0; }
  /// Record a finished span under a reserved id; returns the id.
  std::uint64_t record(std::uint64_t id, std::uint64_t parent,
                       std::uint64_t round, const char* name,
                       std::uint64_t start_ns, std::uint64_t end_ns);
  /// Durations, in microseconds, of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// One JSON object per line. Returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t next_id_ = 1;
  std::vector<span> spans_;
};

/// Flat JSON object writer (numbers, strings, booleans, nested objects
/// given as pre-rendered text). Keys keep insertion order.
class json_obj {
 public:
  json_obj& num(const std::string& k, double v);
  json_obj& integer(const std::string& k, std::uint64_t v);
  json_obj& str(const std::string& k, const std::string& v);
  json_obj& boolean(const std::string& k, bool v);
  json_obj& raw(const std::string& k, const std::string& rendered);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace fleetbench

#endif  // FLEETBENCH_COMMON_H

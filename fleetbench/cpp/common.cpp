#include "common.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/obs.h"

namespace fleetbench {

std::uint64_t now_ns() { return dialed::obs::now_ns(); }

namespace {
std::uint64_t cpu_clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() {
  return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  rng r(seed ^ (salt * 0xd6e8feb86659fd93ULL));
  r.next();
  return r.next();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

line_fit least_squares(const std::vector<double>& x,
                       const std::vector<double>& y) {
  line_fit f;
  const double mx = mean(x), my = mean(y);
  double sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  f.slope = sxx > 0 ? sxy / sxx : 0;
  f.intercept = my - f.slope * mx;
  return f;
}

std::uint64_t span_log::record(std::uint64_t id, std::uint64_t parent,
                               std::uint64_t round, const char* name,
                               std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled_) return 0;
  span s;
  s.id = id;
  s.parent = parent;
  s.round = round;
  s.name = name;
  s.start_ns = start_ns;
  s.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  spans_.push_back(s);
  return s.id;
}

std::vector<double> span_log::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.dur_ns) / 1e3);
  }
  return out;
}

bool span_log::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"round\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"dur_ns\":%llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.round), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.dur_ns));
  }
  return std::fclose(f) == 0;
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

json_obj& json_obj::num(const std::string& k, double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  fields_.emplace_back(k, buf);
  return *this;
}

json_obj& json_obj::integer(const std::string& k, std::uint64_t v) {
  fields_.emplace_back(k, std::to_string(v));
  return *this;
}

json_obj& json_obj::str(const std::string& k, const std::string& v) {
  fields_.emplace_back(k, "\"" + json_escape(v) + "\"");
  return *this;
}

json_obj& json_obj::boolean(const std::string& k, bool v) {
  fields_.emplace_back(k, v ? "true" : "false");
  return *this;
}

json_obj& json_obj::raw(const std::string& k, const std::string& rendered) {
  fields_.emplace_back(k, rendered);
  return *this;
}

std::string json_obj::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + json_escape(fields_[i].first) + "\": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace fleetbench

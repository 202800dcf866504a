// fleetbench: boots the attestation service in-process, drives it over
// loopback with a seeded load generator, checks every verdict, and prints
// the end-to-end metrics (--trace 0) or the per-layer table (--trace 1).
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              --state-root DIR [--spans-out FILE] [--source-id ID]
//
// A run: emulate the input pools, self-check the re-signing shortcut,
// set the service up `setups` times (the last one stays up), warm up, then
// alternate saturation and paced blocks. A traced run adds the layer probe.
// The last stdout line is the result object; the line before it carries
// host metadata, workload descriptors and detail.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "crypto/sha256.h"
#include "loadgen.h"
#include "probe.h"
#include "service.h"
#include "workloads.h"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

namespace fb = fleetbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int setups = 7;
/// The measured time alternates between saturation and paced blocks so
/// that both phases sample the whole run: the shared host's speed drifts
/// over tens of seconds. Each block is cut into sub-windows; rates, CPU
/// and latency percentiles are medians over all sub-windows of a phase.
constexpr int blocks = 4;
constexpr std::size_t windows_per_block = 3;
/// Share of the measured time spent saturated (the rest is paced).
constexpr double sat_share = 0.75;
/// Layer-probe samples in a traced run.
constexpr std::size_t probe_samples = 400;

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string state_root;
  std::string spans_out;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fleetbench: %s\nusage: fleetbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --state-root DIR [--spans-out FILE] "
               "[--source-id ID]\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--state-root") {
        o.state_root = v;
      } else if (a == "--spans-out") {
        o.spans_out = v;
      } else if (a == "--source-id") {
        o.source_id = v;
      } else {
        usage(("unknown flag " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || o.state_root.empty()) {
    usage("--workload, --seed and --state-root are required");
  }
  if (!(o.seconds >= 1 && o.seconds <= 600)) usage("--seconds out of range");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(p + 2);
    }
  }
  return "unknown";
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double l = 0;
  in >> l;
  return l;
}

struct metric {
  const char* name;
  double value;
  const char* unit;
};

std::string render_metrics(const std::vector<metric>& ms) {
  fb::json_obj o;
  for (const auto& m : ms) {
    fb::json_obj v;
    v.num("value", m.value).str("unit", m.unit);
    o.raw(m.name, v.render());
  }
  return o.render();
}

int run(const options& opt) {
  namespace fs = std::filesystem;
  const double load_at_start = load_average();
  const std::uint64_t t_pool = fb::now_ns();
  const fb::workload wl = fb::make_workload(opt.workload, opt.seed);
  const double pool_s = static_cast<double>(fb::now_ns() - t_pool) / 1e9;
  const std::size_t self_checked = fb::self_check(wl, opt.seed);

  fs::create_directories(opt.state_root);
  const std::string base = (fs::path(opt.state_root) /
                            ("run-" + std::to_string(::getpid()))).string();
  std::vector<double> setup_s;
  std::unique_ptr<fb::service> svc;
  for (int k = 0; k < setups; ++k) {
    svc.reset();
    const std::uint64_t t0 = fb::now_ns();
    svc = std::make_unique<fb::service>(wl, base + "-" + std::to_string(k));
    setup_s.push_back(static_cast<double>(fb::now_ns() - t0) / 1e9);
  }

  fb::span_log spans(opt.trace);
  fb::load_generator gen(wl, svc->port(), opt.seed, spans);
  auto& router = svc->router();

  const auto warm = gen.run_sat(std::clamp(opt.seconds * 0.1, 0.5, 2.0));

  const auto hub0 = router.stats(false);
  const auto parts0 = router.partition_stats();
  const std::uint64_t wal0 = svc->wal_bytes();
  fb::phase_stats sat, paced;
  double batches = 0, batched_frames = 0, queued = 0, queue_ns = 0;
  for (int b = 0; b < blocks; ++b) {
    const auto net0 = svc->server().stats();
    sat += gen.run_sat(opt.seconds * sat_share / blocks, windows_per_block);
    const auto net1 = svc->server().stats();
    paced += gen.run_paced(opt.seconds * (1 - sat_share) / blocks,
                           wl.paced_rate, windows_per_block);
    batches += static_cast<double>(net1.batching.batches - net0.batching.batches);
    batched_frames += static_cast<double>(net1.batching.batch_frames -
                                          net0.batching.batch_frames);
    queued += static_cast<double>(net1.batching.queue_wait.count -
                                  net0.batching.queue_wait.count);
    queue_ns += static_cast<double>(net1.batching.queue_wait.sum_ns -
                                    net0.batching.queue_wait.sum_ns);
  }
  const auto hub2 = router.stats(false);
  const auto parts2 = router.partition_stats();
  const std::uint64_t wal2 = svc->wal_bytes();
  const double rss = fb::peak_rss_mib();

  const double batch_frames = batches == 0 ? 0 : batched_frames / batches;
  const double queue_wait_us = queued == 0 ? 0 : queue_ns / 1e3 / queued;
  const double memo_hits =
      static_cast<double>(hub2.replay_memo_hits - hub0.replay_memo_hits);
  const double memo_misses =
      static_cast<double>(hub2.replay_memo_misses - hub0.replay_memo_misses);
  const double submitted =
      static_cast<double>(hub2.reports_submitted() - hub0.reports_submitted());
  double part_max = 0, part_sum = 0;
  for (std::size_t i = 0; i < parts2.size(); ++i) {
    const double n = static_cast<double>(parts2[i].reports_submitted() -
                                         parts0[i].reports_submitted());
    part_max = std::max(part_max, n);
    part_sum += n;
  }
  const double skew =
      part_sum == 0 ? 1
                    : part_max / (part_sum / static_cast<double>(parts2.size()));

  fb::probe_result probe;
  if (opt.trace) {
    probe = fb::run_probe(wl, *svc, gen, spans, batch_frames, probe_samples,
                          base + "-probe");
  }
  svc.reset();
  std::error_code ec;
  fs::remove_all(base + "-probe", ec);
  if (opt.trace && !opt.spans_out.empty() && !spans.write_jsonl(opt.spans_out)) {
    std::fprintf(stderr, "fleetbench: cannot write %s\n", opt.spans_out.c_str());
  }

  const std::uint64_t stray = gen.stray_responses();
  const std::uint64_t attempted = warm.attempted + sat.attempted +
                                  paced.attempted + probe.oracle_checked;
  const std::uint64_t failed = warm.failed + sat.failed + paced.failed +
                               probe.oracle_mismatches + stray;
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1));

  const double verdicts = static_cast<double>(sat.verdicts_in_window);
  std::vector<double> win_rate, win_cpu_us, win_p50, win_p99;
  for (std::size_t k = 0; k < sat.win_verdicts.size(); ++k) {
    const double n = static_cast<double>(sat.win_verdicts[k]);
    win_rate.push_back(n / sat.sub_window_s);
    if (n > 0) win_cpu_us.push_back(static_cast<double>(sat.win_cpu_ns[k]) / 1e3 / n);
  }
  std::size_t lat_samples = 0;
  for (const auto& w : paced.win_latency_ms) {
    lat_samples += w.size();
    if (w.empty()) continue;
    win_p50.push_back(fb::quantile(w, 0.50));
    win_p99.push_back(fb::quantile(w, 0.99));
  }
  const double reports_per_s = fb::quantile(win_rate, 0.5);
  const double cpu_us = fb::quantile(win_cpu_us, 0.5);
  const std::uint64_t rounds = sat.attempted + paced.attempted;
  std::uint64_t attacks = 0;
  for (std::size_t k = 1; k < fb::round_kind_count; ++k) {
    attacks += sat.by_kind[k] + paced.by_kind[k];
  }
  const double frames = static_cast<double>(sat.frames + paced.frames);
  const double frame_bytes_mean =
      frames == 0 ? 0 : static_cast<double>(sat.frame_bytes + paced.frame_bytes) / frames;
  const double log_bytes_mean =
      frames == 0 ? 0 : static_cast<double>(sat.log_bytes + paced.log_bytes) / frames;
  const double attack_share =
      rounds == 0 ? 0 : static_cast<double>(attacks) / static_cast<double>(rounds);

  // ---- detail line -----------------------------------------------------
  fb::json_obj host;
  host.integer("nproc", std::thread::hardware_concurrency())
      .str("cpu_model", cpu_model())
      .num("loadavg_1m_at_start", load_at_start)
      .str("sha256_backend",
           dialed::crypto::to_string(dialed::crypto::sha256_active_backend()))
      .str("build_type", FLEETBENCH_BUILD_TYPE)
      .integer("seed", opt.seed)
      .str("source_id", opt.source_id);
  fb::json_obj desc;
  desc.num("input.frame_bytes_mean", frame_bytes_mean)
      .num("input.log_bytes_mean", log_bytes_mean)
      .num("input.attack_share", attack_share)
      .integer("devices", wl.devices.size())
      .integer("partitions", wl.partitions)
      .num("paced_rate_per_s", wl.paced_rate);
  fb::json_obj detail;
  detail.num("reports_per_s", reports_per_s)
      .num("lat_p50_ms", fb::quantile(win_p50, 0.5))
      .num("failed_frac", failed_frac)
      .integer("wrong_verdict", warm.wrong_verdict + sat.wrong_verdict + paced.wrong_verdict)
      .integer("protocol_error", warm.protocol_error + sat.protocol_error + paced.protocol_error)
      .integer("unanswered", warm.unanswered + sat.unanswered + paced.unanswered)
      .integer("stray_responses", stray)
      .integer("oracle_checked", probe.oracle_checked)
      .integer("oracle_mismatches", probe.oracle_mismatches)
      .integer("self_check_frames", self_checked)
      .num("lat_p99_ms", fb::quantile(win_p99, 0.5))
      .integer("lat_samples", lat_samples)
      .integer("sat_rounds", sat.attempted)
      .integer("paced_rounds", paced.attempted)
      .num("pool_s", pool_s);
  auto series = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.4g", i == 0 ? "" : ", ", v[i]);
      out += buf;
    }
    return out + "]";
  };
  fb::json_obj windows;
  windows.raw("reports_per_s", series(win_rate))
      .raw("cpu_us_per_report", series(win_cpu_us))
      .raw("lat_p50_ms", series(win_p50))
      .raw("lat_p99_ms", series(win_p99));
  detail.raw("sub_windows", windows.render());
  fb::json_obj info;
  info.str("workload", wl.name)
      .raw("host", host.render())
      .raw("workload_descriptors", desc.render())
      .raw("detail", detail.render());
  if (opt.trace) info.raw("stage_agreement", probe.agreement);
  std::printf("%s\n", info.render().c_str());

  // ---- result line -----------------------------------------------------
  std::vector<metric> ms;
  if (!opt.trace) {
    ms = {{"setup_s", fb::quantile(setup_s, 0.5), "s"},
          {"cpu_us_per_report", cpu_us, "us"},
          {"rss_mb", rss, "MiB"}};
  } else {
    ms.push_back({"reports_per_s", reports_per_s, "1/s"});
    ms.push_back({"lat_p50_ms", fb::quantile(win_p50, 0.5), "ms"});
    const auto& p = probe.metrics;
    auto pm = [&](const char* name, const char* unit) {
      ms.push_back({name, p.at(name), unit});
    };
    pm("net.round_us", "us");
    pm("net.self_us", "us");
    ms.push_back({"net.batch_frames_mean", batch_frames, "frames"});
    ms.push_back({"net.queue_wait_us_mean", queue_wait_us, "us"});
    pm("fleet.challenge_us", "us");
    pm("fleet.submit_us", "us");
    pm("fleet.self_us", "us");
    pm("fleet.batch_us_per_report", "us");
    ms.push_back({"fleet.memo_hit_ratio",
                  memo_hits + memo_misses == 0 ? 0 : memo_hits / (memo_hits + memo_misses),
                  "ratio"});
    ms.push_back({"fleet.partition_skew", skew, "ratio"});
    pm("proto.decode_us", "us");
    pm("rot.mac_us", "us");
    pm("crypto.or_hash_us", "us");
    pm("verifier.replay_us", "us");
    pm("verifier.replay_us_p99", "us");
    pm("verifier.replay_instr", "instr");
    pm("verifier.replay_fixed_us", "us");
    pm("verifier.replay_ns_per_instr", "ns/instr");
    pm("emu.recycle_load_us", "us");
    pm("store.journal_us", "us");
    ms.push_back({"store.wal_bytes_per_report",
                  submitted == 0 ? 0 : static_cast<double>(wal2 - wal0) / submitted,
                  "B"});
    pm("obs.decode_us", "us");
    pm("obs.journal_us", "us");
    pm("obs.mac_us", "us");
    pm("obs.replay_us", "us");
    pm("obs.verdict_us", "us");
    pm("obs.disagree_stages", "count");
    ms.push_back({"lat_p99_ms", fb::quantile(win_p99, 0.5), "ms"});
    ms.push_back({"load.gen_us_per_report",
                  verdicts == 0 ? 0 : static_cast<double>(sat.gen_cpu_ns) / 1e3 / verdicts,
                  "us"});
    ms.push_back({"load.gen_busy_frac",
                  static_cast<double>(sat.gen_cpu_ns) / (sat.seconds * 1e9), "ratio"});
    ms.push_back({"load.late_ms_p99", fb::quantile(paced.late_ms, 0.99), "ms"});
    ms.push_back({"input.frame_bytes_mean", frame_bytes_mean, "B"});
    ms.push_back({"input.log_bytes_mean", log_bytes_mean, "B"});
    ms.push_back({"input.attack_share", attack_share, "ratio"});
    ms.push_back({"failed_frac", failed_frac, "ratio"});
  }
  fb::json_obj result;
  result.boolean("correct", failed == 0)
      .integer("attempted", std::max<std::uint64_t>(attempted, 1))
      .integer("failed", failed)
      .raw("metrics", render_metrics(ms));
  std::printf("%s\n", result.render().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}

#include "workloads.h"

#include <algorithm>
#include <exception>
#include <map>
#include <set>
#include <thread>

#include "common.h"
#include "common/error.h"
#include "crypto/sha256.h"
#include "fleet/registry.h"
#include "proto/prover.h"
#include "proto/wire.h"
#include "rot/attest.h"

namespace fleetbench {

using dialed::byte_vec;
using dialed::proto::invocation;

expected_outcome expected_for(round_kind kind) {
  expected_outcome e;
  switch (kind) {
    case round_kind::benign: e.accepted = true; break;
    case round_kind::data_only:
    case round_kind::forged_mac: break;
    case round_kind::replayed:
      e.error = dialed::proto::proto_error::replayed_report;
      break;
  }
  return e;
}

const byte_vec& master_key() {
  static const byte_vec key(32, 0xAB);
  return key;
}

namespace {

using input_fn = invocation (*)(rng&);

// ---- input generators (one per app and shape) ----------------------------
// Every argument the op takes is logged in the I-Log, so drawing the
// arguments from wide ranges is what makes the pooled ORs distinct.

invocation syringe_light(rng& r) {
  // A short push or pull: at most 12 motor steps, a few thousand
  // replayed instructions.
  invocation inv;
  inv.args[0] = static_cast<std::uint16_t>(r.range(1, 4000));  // max_steps
  inv.net_rx = {static_cast<std::uint8_t>(r.below(2) == 0 ? '+' : '-'),
                static_cast<std::uint8_t>(r.range(1, 6))};
  return inv;
}

invocation syringe_long(rng& r) {
  // The longest operations whose CF-Log + I-Log still fit the 2 KiB OR:
  // a 40-44 step push or a 132-136 step pull (10-11.4k instructions).
  invocation inv;
  const bool push = r.below(2) == 0;
  const int ul = push ? r.range(20, 22) : r.range(66, 68);
  // max_steps is a signed 16-bit int on the device: stay below 32768.
  inv.args[0] = static_cast<std::uint16_t>(r.range(2 * ul, 32767));
  inv.net_rx = {static_cast<std::uint8_t>(push ? '+' : '-'),
                static_cast<std::uint8_t>(ul)};
  return inv;
}

invocation fire_sensor(rng& r) {
  invocation inv;
  inv.args[0] = static_cast<std::uint16_t>(r.range(0, 1000));  // threshold
  inv.adc_samples = {static_cast<std::uint16_t>(r.range(0, 1023))};
  return inv;
}

invocation ultrasonic(rng& r) {
  invocation inv;
  const int pings = r.range(1, 8);
  inv.args[0] = static_cast<std::uint16_t>(pings);
  for (int i = 0; i < pings; ++i) {
    inv.adc_samples.push_back(static_cast<std::uint16_t>(r.range(300, 4000)));
  }
  return inv;
}

invocation fig2_benign(rng& r) {
  return dialed::apps::fig2_benign(r.range(0, 1000), r.range(0, 7));
}

invocation fig2_attack(rng& r) {
  // Index 8 aliases the `set` actuation word whatever value is written.
  return dialed::apps::fig2_benign(r.range(0, 1000), 8);
}

std::vector<std::uint8_t> digits(rng& r, int n) {
  std::vector<std::uint8_t> d;
  for (int i = 0; i < n; ++i) d.push_back(static_cast<std::uint8_t>(r.below(10)));
  return d;
}

invocation door_benign(rng& r) {
  return dialed::apps::door_lock_try(digits(r, r.range(1, 6)));
}

invocation door_attack(rng& r) {
  return dialed::apps::door_lock_attack(digits(r, 6));
}

struct group_spec {
  dialed::apps::app_spec app;
  std::uint32_t devices;
  std::size_t pool;  ///< benign pool entries
  input_fn benign;
  input_fn attack;  ///< nullptr: no data-only attack for this app
  std::size_t attack_pool;
};

struct workload_spec {
  std::size_t partitions;
  bool delta_frames;
  bool memo_bypass;
  double paced_rate;
  double p_data_only, p_forged_mac, p_replayed;
  std::vector<group_spec> groups;
};

// Paced rates are 10-25% of each workload's saturation rate on a shared
// 4-vCPU host. Near half load the service flips between a small-batch and
// a large-batch equilibrium whenever the host slows, so latency there
// measures the host rather than the service.
workload_spec spec_for(const std::string& name) {
  const auto eval = dialed::apps::evaluation_apps();  // pump, fire, ranger
  if (name == "sensor-fleet") {
    // Each device walks a slice of its group's pool, so an OR comes back
    // only after ~8192 rounds fleet-wide: ~2048 per partition, twice the
    // 1024-entry replay memo of each partition hub.
    workload_spec s{4, false, true, 1000, 0.10, 0.007, 0.007, {}};
    s.groups = {
        {eval[0], 80, 2560, syringe_light, nullptr, 0},
        {eval[1], 80, 2560, fire_sensor, nullptr, 0},
        {eval[2], 80, 2560, ultrasonic, nullptr, 0},
        {dialed::apps::fig2_app(), 8, 256, fig2_benign, fig2_attack, 32},
        {dialed::apps::door_lock_app(), 8, 256, door_benign, door_attack, 32},
    };
    return s;
  }
  if (name == "idle-poll") {
    // 16 inputs for 1024 devices: every report after the first few is a
    // memo hit, and after a device's first accepted round a v2.1 delta.
    workload_spec s{4, true, false, 3000, 0, 0, 0, {}};
    s.groups = {{eval[1], 1024, 16, fire_sensor, nullptr, 0}};
    return s;
  }
  if (name == "replay-long") {
    // Pool twice the memo's 1024 entries: no OR repeats within its reach.
    // Runnable and smoke-tested, but not in BENCHMARK.json: its CPU per
    // report alternates between ~400 and ~750 us in a ~30 s cycle that
    // goes away with the replay memo disabled, so 30 s runs were bimodal.
    workload_spec s{1, false, true, 600, 0, 0, 0, {}};
    s.groups = {{eval[0], 32, 2048, syringe_long, nullptr, 0}};
    return s;
  }
  throw dialed::error("fleetbench: unknown workload '" + name + "'");
}

/// Emulate `n` inputs drawn from `gen` (each OR distinct) and check every
/// verdict directly against the verifier: benign entries must be
/// accepted, attack entries rejected with a data_only_attack finding.
/// Inputs are drawn in order from `r`; emulation is spread over a few
/// threads, and the pool is the same for a seed whatever the interleaving.
std::vector<pool_entry> draw_pool(const firmware_group& g, const byte_vec& key,
                                  input_fn gen, std::size_t n, bool attack,
                                  rng& r) {
  using dialed::verifier::attack_kind;
  struct emulated {
    pool_entry e;
    bool ok = false;
  };
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  const std::array<std::uint8_t, 16> nonce{};
  std::vector<pool_entry> pool;
  std::set<dialed::crypto::sha256::digest> seen;
  for (int pass = 0; pool.size() < n; ++pass) {
    if (pass == 8) {
      throw dialed::error("fleetbench: cannot draw " + std::to_string(n) +
                          " distinct inputs for " + g.app.name);
    }
    std::vector<emulated> batch(n - pool.size() + 8);
    for (auto& b : batch) b.e.input = gen(r);
    std::vector<std::thread> workers;
    std::vector<std::exception_ptr> errors(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        try {
          dialed::proto::prover_device dev(g.prog, key);
          for (std::size_t i = t; i < batch.size(); i += threads) {
            auto& b = batch[i];
            b.e.report = dev.invoke(nonce, b.e.input);
            b.e.log_bytes = dev.last_log_bytes();
            const auto v = g.artifact->verify(b.e.report, key, {}, nonce);
            b.ok = attack ? (!v.accepted &&
                             v.has(attack_kind::data_only_attack))
                          : v.accepted;
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
    for (auto& t : workers) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (auto& b : batch) {
      if (pool.size() == n) break;
      if (!b.ok) {
        throw dialed::error("fleetbench: a " + g.app.name + " pool input "
                            "did not verify as " +
                            (attack ? "a data-only attack" : "accepted"));
      }
      if (seen.insert(dialed::crypto::sha256::hash(b.e.report.or_bytes))
              .second) {
        pool.push_back(std::move(b.e));
      }
    }
  }
  return pool;
}

}  // namespace

workload make_workload(const std::string& name, std::uint64_t seed) {
  const workload_spec spec = spec_for(name);
  workload w;
  w.name = name;
  w.partitions = spec.partitions;
  w.delta_frames = spec.delta_frames;
  w.memo_bypass = spec.memo_bypass;
  w.paced_rate = spec.paced_rate;
  w.p_data_only = spec.p_data_only;
  w.p_forged_mac = spec.p_forged_mac;
  w.p_replayed = spec.p_replayed;

  const dialed::fleet::device_registry kdf(master_key());
  std::uint32_t next_id = 1;
  for (std::size_t gi = 0; gi < spec.groups.size(); ++gi) {
    const auto& gs = spec.groups[gi];
    firmware_group g;
    g.app = gs.app;
    g.prog = dialed::apps::build_app(g.app,
                                     dialed::instr::instrumentation::dialed);
    g.artifact = dialed::verifier::firmware_artifact::build(g.prog);
    const auto hdr = dialed::rot::attest_mac_header(
        g.prog.er_min, g.prog.er_max, g.prog.options.map.or_min,
        g.prog.options.map.or_max, true);
    g.header_and_er.assign(hdr.begin(), hdr.end());
    const auto er = g.artifact->er_bytes();
    g.header_and_er.insert(g.header_and_er.end(), er.begin(), er.end());

    // The pool does not depend on the device key (the OR never does);
    // emulate under the group's first device key.
    const byte_vec key = kdf.derive_key(next_id);
    rng r(mix_seed(seed, 0x100 + gi));
    g.benign = draw_pool(g, key, gs.benign, gs.pool, false, r);
    if (gs.attack != nullptr) {
      g.attacks = draw_pool(g, key, gs.attack, gs.attack_pool, true, r);
    }
    for (std::uint32_t d = 0; d < gs.devices; ++d) {
      device_plan p;
      p.id = next_id++;
      p.group = static_cast<std::uint16_t>(gi);
      p.pool_start = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(d) * gs.pool / gs.devices);
      if (!spec.memo_bypass) p.pool_start = d % gs.pool;
      p.key = kdf.derive_key(p.id);
      p.key_state = dialed::crypto::hmac_keystate::derive(p.key);
      w.devices.push_back(std::move(p));
    }
    w.groups.push_back(std::move(g));
  }
  return w;
}

void build_frame(const firmware_group& g, const pool_entry& entry,
                 std::uint32_t device_id, std::uint32_t seq,
                 const std::array<std::uint8_t, 16>& nonce,
                 const dialed::crypto::hmac_keystate& key, bool forge_mac,
                 const baseline_ref* base,
                 dialed::verifier::attestation_report& scratch,
                 byte_vec& out) {
  scratch = entry.report;
  scratch.challenge = nonce;
  dialed::rot::attest_input in;
  in.er_min = scratch.er_min;
  in.er_max = scratch.er_max;
  in.or_min = scratch.or_min;
  in.or_max = scratch.or_max;
  in.exec = scratch.exec;
  in.challenge = scratch.challenge;
  in.er_bytes = g.artifact->er_bytes();
  in.or_bytes = scratch.or_bytes;
  scratch.mac = dialed::rot::compute_attestation_mac(key, in);
  if (forge_mac) scratch.mac[0] ^= 0x01;

  dialed::proto::frame_info info;
  info.version = dialed::proto::wire_v2;
  info.device_id = device_id;
  info.seq = seq;
  const auto err =
      base != nullptr
          ? dialed::proto::encode_delta_frame_into(
                info, scratch, base->seq, base->entry->report.or_bytes, out)
          : dialed::proto::encode_frame_into(info, scratch, out);
  if (err != dialed::proto::proto_error::none) {
    throw dialed::error("fleetbench: frame encode failed");
  }
}

std::size_t self_check(const workload& w, std::uint64_t seed) {
  // Per firmware: a few benign rounds (full frames, and delta frames where
  // the workload sends them), forged-MAC rounds, and data-only attack
  // rounds. Replayed rounds re-send a frame built for an accepted benign
  // round byte for byte, so the benign comparison covers them.
  constexpr int samples = 3;
  rng r(mix_seed(seed, 0x5e1f));
  std::size_t compared = 0;
  std::map<std::uint16_t, const device_plan*> first_device;
  for (const auto& d : w.devices) first_device.emplace(d.group, &d);

  dialed::verifier::attestation_report scratch;
  byte_vec mine;
  for (const auto& [gi, dev_plan] : first_device) {
    const auto& g = w.groups[gi];
    dialed::proto::prover_device prover(g.prog, dev_plan->key);
    auto compare = [&](const pool_entry& e, bool forge,
                       const pool_entry* base, const char* what) {
      std::array<std::uint8_t, 16> nonce{};
      for (auto& b : nonce) b = static_cast<std::uint8_t>(r.next());
      const auto seq = static_cast<std::uint32_t>(r.range(2, 1 << 30));
      const baseline_ref ref{seq - 1, base};
      build_frame(g, e, dev_plan->id, seq, nonce, dev_plan->key_state,
                  forge, base != nullptr ? &ref : nullptr, scratch, mine);

      auto rep = prover.invoke(nonce, e.input);
      if (forge) rep.mac[0] ^= 0x01;
      byte_vec theirs;
      if (base != nullptr) {
        // The prover's own transport path: a delta_emitter whose mirror
        // holds the accepted baseline round.
        dialed::proto::delta_emitter emitter;
        emitter.note_result(dev_plan->id, seq - 1, base->report,
                            dialed::proto::proto_error::none, true);
        theirs = emitter.encode(dev_plan->id, seq, rep);
      } else {
        dialed::proto::frame_info info;
        info.device_id = dev_plan->id;
        info.seq = seq;
        theirs = dialed::proto::encode_frame(info, rep);
      }
      if (mine != theirs) {
        throw dialed::error("fleetbench: self-check failed: re-signed " +
                            std::string(what) + " frame for " + g.app.name +
                            " differs from the prover's");
      }
      ++compared;
    };
    for (int i = 0; i < samples; ++i) {
      const auto& e = g.benign[r.below(g.benign.size())];
      compare(e, false, nullptr, "benign");
      compare(e, true, nullptr, "forged-MAC");
      if (w.delta_frames) compare(e, false, &e, "delta");
      if (!g.attacks.empty()) {
        compare(g.attacks[r.below(g.attacks.size())], false, nullptr,
                "data-only attack");
      }
    }
  }
  return compared;
}

}  // namespace fleetbench

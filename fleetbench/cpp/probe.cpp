#include "probe.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/error.h"
#include "crypto/sha256.h"
#include "emu/machine.h"
#include "proto/prover.h"
#include "proto/wire.h"
#include "rot/attest.h"
#include "store/fleet_store.h"
#include "verifier/replay.h"

namespace fleetbench {

namespace dv = dialed::verifier;
using dialed::byte_vec;
using dialed::proto::proto_error;

namespace {

/// Probe rounds get ids far above the load phases' round ids.
constexpr std::uint64_t probe_round_base = 1ull << 40;

bool same_verdict(const dv::verdict& a, const dv::verdict& b) {
  if (a.accepted != b.accepted || a.replayed_result != b.replayed_result ||
      a.replay_instructions != b.replay_instructions ||
      a.log_slots_consumed != b.log_slots_consumed ||
      a.log_bytes != b.log_bytes || a.result_tainted != b.result_tainted ||
      a.findings.size() != b.findings.size() ||
      a.annotated_log.size() != b.annotated_log.size() ||
      a.io_trace.size() != b.io_trace.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    const auto &x = a.findings[i], &y = b.findings[i];
    if (x.kind != y.kind || x.detail != y.detail || x.pc != y.pc ||
        x.addr != y.addr) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.annotated_log.size(); ++i) {
    const auto &x = a.annotated_log[i], &y = b.annotated_log[i];
    if (x.slot != y.slot || x.value != y.value || x.kind != y.kind ||
        x.source_pc != y.source_pc) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.io_trace.size(); ++i) {
    const auto &x = a.io_trace[i], &y = b.io_trace[i];
    if (x.addr != y.addr || x.value != y.value || x.pc != y.pc ||
        x.tainted != y.tainted) {
      return false;
    }
  }
  return true;
}

double us_since(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e3;
}

/// Spread of a per-sample series: the interquartile range of the means of
/// eight consecutive blocks of samples.
double block_spread(const std::vector<double>& v) {
  constexpr std::size_t blocks = 8;
  if (v.size() < blocks) return 0;
  std::vector<double> means;
  const std::size_t per = v.size() / blocks;
  for (std::size_t b = 0; b < blocks; ++b) {
    means.push_back(mean(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(b * per),
        v.begin() + static_cast<std::ptrdiff_t>((b + 1) * per))));
  }
  return quantile(means, 0.75) - quantile(means, 0.25);
}

/// One hub stage next to the outside timing of the same work.
struct stage_pair {
  const char* stage;
  std::vector<double> obs_us;
  std::vector<double> outside_us;
};

}  // namespace

probe_result run_probe(const workload& w, service& svc, load_generator& gen,
                       span_log& spans, double batch_frames,
                       std::size_t samples, const std::string& state_dir) {
  probe_result out;
  auto& router = svc.router();
  const std::size_t devices = gen.device_count();

  // The store timings run on a scratch store so the live one's mirror
  // never sees records its hub did not issue.
  dialed::store::fleet_store::options so;
  so.master_key = master_key();
  auto scratch = dialed::store::fleet_store::open(state_dir, so);
  std::set<std::uint32_t> scratch_devices;

  std::vector<std::unique_ptr<dialed::emu::machine>> machines;
  for (const auto& g : w.groups) {
    machines.push_back(std::make_unique<dialed::emu::machine>(
        g.prog.options.map, dialed::emu::machine::peripheral_set::halt_only));
  }

  dialed::proto::decoded_frame dec;
  byte_vec or_buf, frame;
  std::vector<double> reg_x, reg_y, replay_us, instr;
  std::vector<double> replay_eff_us, in_submit_journal_us;
  stage_pair pairs[] = {{"decode", {}, {}},
                        {"journal", {}, {}},
                        {"mac", {}, {}},
                        {"replay", {}, {}},
                        {"verdict", {}, {}}};
  volatile std::uint8_t sink = 0;

  auto check = [&](bool ok) {
    ++out.oracle_checked;
    if (!ok) ++out.oracle_mismatches;
  };

  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t dev = samples >= devices ? i % devices
                                               : i * devices / samples;
    const auto& plan = w.devices[dev];
    const auto& g = w.groups[plan.group];
    const std::uint64_t round = probe_round_base + i;
    const std::uint64_t root = spans.reserve();
    const std::uint64_t t_root = now_ns();

    // net: one wire round, nothing else in flight.
    const auto legs = gen.single_round(dev);
    check(legs.ok);
    const std::uint64_t net_root = spans.reserve();
    spans.add(net_root, round, "net.challenge", legs.challenge_sent,
              legs.challenge_recv);
    spans.add(net_root, round, "net.report", legs.report_sent,
              legs.verdict_recv);
    spans.record(net_root, root, round, "net.round", legs.challenge_sent,
                 legs.verdict_recv);

    // fleet: a challenge straight from the router.
    std::uint64_t t = now_ns();
    const auto grant = router.challenge(plan.id);
    spans.add(root, round, "fleet.challenge", t, now_ns());
    if (!grant.ok()) throw dialed::error("fleetbench: probe challenge failed");
    const pool_entry& entry = gen.build_benign(dev, grant.seq, grant.nonce, frame);

    // proto: decode (borrow), plus delta reconstruction for v2.1.
    const auto baseline = gen.baseline_or(dev);
    t = now_ns();
    auto err = dialed::proto::decode_frame_into(
        frame, dec, dialed::proto::decode_mode::borrow);
    std::span<const std::uint8_t> or_bytes = dec.or_view;
    if (err == proto_error::none && dec.delta.present) {
      err = dialed::proto::apply_or_delta(dec.delta, baseline, or_buf);
      or_bytes = or_buf;
    }
    std::uint64_t t2 = now_ns();
    spans.add(root, round, "proto.decode", t, t2);
    const double decode_us = us_since(t, t2);
    if (err != proto_error::none) {
      throw dialed::error("fleetbench: probe frame does not decode");
    }
    dv::report_view view = dec.report;
    view.or_bytes = or_bytes;

    // rot: the verifier-side MAC over header ‖ ER ‖ OR.
    t = now_ns();
    const auto mac = dialed::rot::compute_attestation_mac(
        plan.key_state, grant.nonce, g.header_and_er, or_bytes);
    t2 = now_ns();
    spans.add(root, round, "rot.mac", t, t2);
    const double mac_us = us_since(t, t2);
    check(mac == view.mac);

    // crypto: SHA-256 over the OR, what the replay memo keys on.
    t = now_ns();
    sink = sink ^ dialed::crypto::sha256::hash(or_bytes)[0];
    t2 = now_ns();
    spans.add(root, round, "crypto.or_hash", t, t2);
    const double hash_us = us_since(t, t2);

    // verifier: the abstract execution itself.
    t = now_ns();
    const auto rr = dv::replay_operation(*g.artifact, view, {});
    t2 = now_ns();
    spans.add(root, round, "verifier.replay", t, t2);
    const double rep_us = us_since(t, t2);
    replay_us.push_back(rep_us);
    instr.push_back(static_cast<double>(rr.instructions));
    reg_x.push_back(static_cast<double>(rr.instructions));
    reg_y.push_back(rep_us);

    // emu: machine reset + image load, the replay's fixed setup.
    auto& m = *machines[plan.group];
    t = now_ns();
    m.recycle();
    m.load(g.prog.image);
    spans.add(root, round, "emu.recycle_load", t, now_ns());

    // store: the journal records one round costs, on the scratch store.
    if (scratch_devices.insert(plan.id).second) {
      scratch.registry->provision(plan.id, g.prog);
    }
    auto& st = *scratch.store;
    const std::uint64_t jroot = spans.reserve();
    const std::uint64_t tj = now_ns();
    st.on_challenge(plan.id, grant.seq, grant.nonce, 0);
    const std::uint64_t tr = now_ns();
    st.on_retire(plan.id, grant.nonce, dialed::fleet::nonce_fate::consumed);
    const std::uint64_t tv = now_ns();
    st.on_verdict(plan.id, proto_error::none, true);
    const std::uint64_t tb = now_ns();
    st.sync_barrier();
    const std::uint64_t te = now_ns();
    spans.add(jroot, round, "store.on_challenge", tj, tr);
    spans.add(jroot, round, "store.on_retire", tr, tv);
    spans.add(jroot, round, "store.on_verdict", tv, tb);
    spans.add(jroot, round, "store.sync_barrier", tb, te);
    spans.record(jroot, root, round, "store.journal", tj, te);
    in_submit_journal_us.push_back(us_since(tr, te));

    // The direct verdict the hub's must equal.
    const auto direct = g.artifact->verify(view, plan.key_state, {}, grant.nonce);

    // fleet: submit through the router, with the hub's own stage
    // histograms read around the call.
    const auto p0 = router.pipeline();
    const auto s0 = router.stats(false);
    t = now_ns();
    const auto res = router.submit(frame);
    spans.add(root, round, "fleet.submit", t, now_ns());
    const auto p1 = router.pipeline();
    const auto s1 = router.stats(false);
    spans.record(root, 0, round, "probe.sample", t_root, now_ns());

    const bool memo_hit = s1.replay_memo_hits > s0.replay_memo_hits;
    replay_eff_us.push_back(memo_hit ? 0 : rep_us);
    for (std::size_t k = 0; k < dialed::obs::stage_count; ++k) {
      pairs[k].obs_us.push_back(
          static_cast<double>(p1.stages[k].sum_ns - p0.stages[k].sum_ns) /
          1e3);
    }
    pairs[0].outside_us.push_back(decode_us);
    pairs[1].outside_us.push_back(in_submit_journal_us.back());
    pairs[2].outside_us.push_back(mac_us);
    pairs[3].outside_us.push_back(replay_eff_us.back() + hash_us);

    check(res.accepted() && same_verdict(res.verdict, direct) &&
          rr.instructions == res.verdict.replay_instructions);
    if (res.accepted()) gen.note_accepted(dev, grant.seq, entry);
  }

  // Attack rounds through the same direct path: each must draw its
  // expected rejection, with the hub's verdict equal to the verifier's.
  if (!w.delta_frames) {
    dv::attestation_report rep;
    // Two data-only rounds on every app that has an attack input.
    std::map<std::uint16_t, int> data_only_done;
    for (const auto& plan : w.devices) {
      const auto& g = w.groups[plan.group];
      int& done = data_only_done[plan.group];
      if (g.attacks.empty() || done == 2) continue;
      const auto grant = router.challenge(plan.id);
      build_frame(g, g.attacks[static_cast<std::size_t>(done)], plan.id,
                  grant.seq, grant.nonce, plan.key_state, false, nullptr, rep,
                  frame);
      const auto res = router.submit(frame);
      const auto direct = g.artifact->verify(rep, plan.key_state, {}, grant.nonce);
      check(res.error == proto_error::none && !res.verdict.accepted &&
            res.verdict.has(dv::attack_kind::data_only_attack) &&
            same_verdict(res.verdict, direct));
      ++done;
    }
    if (w.p_forged_mac > 0 || w.p_replayed > 0) {
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t dev = k * devices / 4;
        const auto& plan = w.devices[dev];
        const auto& g = w.groups[plan.group];
        const auto& e = g.benign[w.devices[dev].pool_start];
        auto grant = router.challenge(plan.id);
        build_frame(g, e, plan.id, grant.seq, grant.nonce, plan.key_state,
                    true, nullptr, rep, frame);
        const auto forged = router.submit(frame);
        const auto direct =
            g.artifact->verify(rep, plan.key_state, {}, grant.nonce);
        check(forged.error == proto_error::none && !forged.accepted() &&
              forged.verdict.has(dv::attack_kind::mac_invalid) &&
              same_verdict(forged.verdict, direct));

        grant = router.challenge(plan.id);
        build_frame(g, e, plan.id, grant.seq, grant.nonce, plan.key_state,
                    false, nullptr, rep, frame);
        const auto first = router.submit(frame);
        check(first.accepted());
        (void)router.challenge(plan.id);
        const auto again = router.submit(frame);
        check(again.error == proto_error::replayed_report);
      }
    }
  }

  // fleet: verify_batch at the sat phase's mean batch size.
  const std::size_t batch = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(batch_frames)), 1, devices);
  const std::size_t batches = std::max<std::size_t>(8, 512 / batch);
  std::vector<byte_vec> frames(batch);
  std::vector<const pool_entry*> entries(batch);
  std::vector<std::uint32_t> seqs(batch);
  double batch_us = 0;
  std::size_t batch_reports = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t j = 0; j < batch; ++j) {
      const std::size_t dev = (b * batch + j) % devices;
      const auto grant = router.challenge(w.devices[dev].id);
      entries[j] = &gen.build_benign(dev, grant.seq, grant.nonce, frames[j]);
      seqs[j] = grant.seq;
    }
    const std::uint64_t t = now_ns();
    const auto results = router.verify_batch(frames);
    const std::uint64_t t2 = now_ns();
    spans.add(0, probe_round_base + samples + b, "fleet.verify_batch", t, t2);
    batch_us += us_since(t, t2);
    batch_reports += batch;
    for (std::size_t j = 0; j < batch; ++j) {
      check(results[j].accepted());
      if (results[j].accepted()) {
        gen.note_accepted((b * batch + j) % devices, seqs[j], *entries[j]);
      }
    }
  }

  // verifier: fixed cost and per-instruction slope, fit over the sampled
  // reports plus a SyringePump step ladder (8..128 steps) so the fit is
  // well-posed on workloads whose reports all replay the same length.
  {
    const auto app = dialed::apps::evaluation_apps()[0];
    const auto prog =
        dialed::apps::build_app(app, dialed::instr::instrumentation::dialed);
    const auto fw = dv::firmware_artifact::build(prog);
    dialed::proto::prover_device dev(prog, byte_vec(32, 0x5a));
    const std::array<std::uint8_t, 16> nonce{};
    for (int ul = 4; ul <= 64; ul += 4) {
      dialed::proto::invocation inv;
      inv.args[0] = 1000;
      inv.net_rx = {'-', static_cast<std::uint8_t>(ul)};
      const auto rep = dev.invoke(nonce, inv);
      for (int r = 0; r < 4; ++r) {
        const std::uint64_t t = now_ns();
        const auto rr = dv::replay_operation(*fw, rep, {});
        const std::uint64_t t2 = now_ns();
        spans.add(0, 0, "verifier.replay_ladder", t, t2);
        reg_x.push_back(static_cast<double>(rr.instructions));
        reg_y.push_back(us_since(t, t2));
      }
    }
  }

  auto span_mean = [&](const char* name) {
    return mean(spans.durations_us(name));
  };
  auto& mt = out.metrics;
  mt["net.round_us"] = span_mean("net.challenge") + span_mean("net.report");
  mt["fleet.challenge_us"] = span_mean("fleet.challenge");
  mt["fleet.submit_us"] = span_mean("fleet.submit");
  mt["net.self_us"] =
      mt["net.round_us"] - mt["fleet.challenge_us"] - mt["fleet.submit_us"];
  mt["proto.decode_us"] = span_mean("proto.decode");
  mt["rot.mac_us"] = span_mean("rot.mac");
  mt["crypto.or_hash_us"] = span_mean("crypto.or_hash");
  mt["verifier.replay_us"] = mean(replay_us);
  mt["verifier.replay_us_p99"] = quantile(replay_us, 0.99);
  mt["verifier.replay_instr"] = mean(instr);
  const auto fit = least_squares(reg_x, reg_y);
  mt["verifier.replay_fixed_us"] = fit.intercept;
  mt["verifier.replay_ns_per_instr"] = fit.slope * 1e3;
  mt["emu.recycle_load_us"] = span_mean("emu.recycle_load");
  mt["store.journal_us"] = span_mean("store.journal");
  // Only the memo-missing share of replay runs inside submit, and only the
  // retire / verdict / barrier records of the journal (the challenge record
  // is written by challenge()).
  mt["fleet.self_us"] = mt["fleet.submit_us"] - mt["proto.decode_us"] -
                        mt["rot.mac_us"] - mean(replay_eff_us) -
                        mean(in_submit_journal_us);
  mt["fleet.batch_us_per_report"] =
      batch_reports == 0 ? 0 : batch_us / static_cast<double>(batch_reports);

  json_obj agree;
  int disagree = 0;
  for (auto& p : pairs) {
    const double obs_mean = mean(p.obs_us);
    mt[std::string("obs.") + p.stage + "_us"] = obs_mean;
    json_obj row;
    row.num("obs_us", obs_mean);
    if (p.outside_us.empty()) {
      row.str("outside", "none");
    } else {
      const double outside = mean(p.outside_us);
      const double spread =
          std::max(block_spread(p.obs_us), block_spread(p.outside_us));
      const bool differs = std::fabs(obs_mean - outside) > spread;
      disagree += differs ? 1 : 0;
      row.num("outside_us", outside).num("spread_us", spread)
          .boolean("disagree", differs);
    }
    agree.raw(p.stage, row.render());
  }
  mt["obs.disagree_stages"] = disagree;
  out.agreement = agree.render();
  (void)sink;
  return out;
}

}  // namespace fleetbench

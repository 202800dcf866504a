// Replay fast-path differential suite (PR 10): the direct-dispatch replay
// loop and the memoized path must produce verdicts FIELD-IDENTICAL to the
// legacy live-decode loop — over the four evaluation apps, the
// attack/forged/CFA rounds and the wire fuzz corpus — plus the replay
// memo's own LRU/counter semantics and the top-of-address-space
// fail-closed behavior.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "apps/apps.h"
#include "common/error.h"
#include "emu/memmap.h"
#include "fleet/verifier_hub.h"
#include "helpers.h"
#include "proto/wire.h"
#include "verifier/firmware_artifact.h"
#include "verifier/replay_cache.h"

namespace dialed::verifier {
namespace {

namespace fs = std::filesystem;
using fleet::device_registry;
using fleet::verifier_hub;
using test::build_op;

byte_vec master_key() { return byte_vec(32, 0x42); }

/// Pins the process-global dispatch mode for one scope and always
/// restores the fast default.
struct dispatch_guard {
  explicit dispatch_guard(replay_dispatch d) { replay_force_dispatch(d); }
  ~dispatch_guard() { replay_force_dispatch(replay_dispatch::fast); }
};

void expect_verdict_eq(const verdict& a, const verdict& b,
                       const std::string& label) {
  EXPECT_EQ(a.accepted, b.accepted) << label;
  EXPECT_EQ(a.replayed_result, b.replayed_result) << label;
  EXPECT_EQ(a.replay_instructions, b.replay_instructions) << label;
  EXPECT_EQ(a.log_slots_consumed, b.log_slots_consumed) << label;
  EXPECT_EQ(a.log_bytes, b.log_bytes) << label;
  EXPECT_EQ(a.result_tainted, b.result_tainted) << label;
  ASSERT_EQ(a.findings.size(), b.findings.size()) << label;
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].kind, b.findings[i].kind) << label;
    EXPECT_EQ(a.findings[i].detail, b.findings[i].detail) << label;
    EXPECT_EQ(a.findings[i].pc, b.findings[i].pc) << label;
    EXPECT_EQ(a.findings[i].addr, b.findings[i].addr) << label;
  }
  ASSERT_EQ(a.annotated_log.size(), b.annotated_log.size()) << label;
  for (std::size_t i = 0; i < a.annotated_log.size(); ++i) {
    EXPECT_EQ(a.annotated_log[i].slot, b.annotated_log[i].slot) << label;
    EXPECT_EQ(a.annotated_log[i].value, b.annotated_log[i].value) << label;
    EXPECT_EQ(a.annotated_log[i].kind, b.annotated_log[i].kind) << label;
    EXPECT_EQ(a.annotated_log[i].source_pc, b.annotated_log[i].source_pc)
        << label;
  }
  ASSERT_EQ(a.io_trace.size(), b.io_trace.size()) << label;
  for (std::size_t i = 0; i < a.io_trace.size(); ++i) {
    EXPECT_EQ(a.io_trace[i].addr, b.io_trace[i].addr) << label;
    EXPECT_EQ(a.io_trace[i].value, b.io_trace[i].value) << label;
    EXPECT_EQ(a.io_trace[i].pc, b.io_trace[i].pc) << label;
    EXPECT_EQ(a.io_trace[i].tainted, b.io_trace[i].tainted) << label;
  }
}

void expect_result_eq(const fleet::attest_result& a,
                      const fleet::attest_result& b,
                      const std::string& label) {
  EXPECT_EQ(a.error, b.error) << label;
  EXPECT_EQ(a.device, b.device) << label;
  EXPECT_EQ(a.seq, b.seq) << label;
  expect_verdict_eq(a.verdict, b.verdict, label);
}

std::vector<apps::app_spec> four_apps() {
  auto specs = apps::evaluation_apps();  // SyringePump, FireSensor, Ranger
  specs.push_back(apps::door_lock_app());
  return specs;
}

/// Verify one report under every dispatch/memo combination and require
/// field-identical verdicts throughout. Returns the legacy verdict.
verdict expect_all_paths_equal(const firmware_artifact& fw,
                               const attestation_report& rep,
                               const std::array<std::uint8_t, 16>& chal,
                               const std::string& label) {
  const auto ks = crypto::hmac_keystate::derive(test::test_key());
  const std::vector<std::shared_ptr<policy>> no_policies;

  verdict legacy;
  {
    dispatch_guard pin(replay_dispatch::legacy);
    legacy = fw.verify(rep, ks, no_policies, chal);
  }
  const verdict fast = fw.verify(rep, ks, no_policies, chal);
  expect_verdict_eq(legacy, fast, label + "/fast-vs-legacy");

  replay_memo memo(8);
  const verdict miss =
      fw.verify(rep, ks, no_policies, chal, nullptr, &memo);
  const verdict hit =
      fw.verify(rep, ks, no_policies, chal, nullptr, &memo);
  expect_verdict_eq(legacy, miss, label + "/memo-miss-vs-legacy");
  expect_verdict_eq(legacy, hit, label + "/memo-hit-vs-legacy");
  return legacy;
}

// ---------------------------------------------------------------------------
// Differential: legacy vs fast vs memoized
// ---------------------------------------------------------------------------

TEST(dispatch, all_apps_benign_rounds_identical) {
  for (const auto& app : four_apps()) {
    const auto prog =
        apps::build_app(app, instr::instrumentation::dialed);
    proto::prover_device dev(prog, test::test_key());
    std::array<std::uint8_t, 16> chal{};
    chal.fill(0x7e);
    const auto rep = dev.invoke(chal, app.representative_input);
    const auto fw = firmware_artifact::build(prog);
    const auto v = expect_all_paths_equal(*fw, rep, chal, app.name);
    EXPECT_TRUE(v.accepted) << app.name;
  }
}

TEST(dispatch, attack_and_forged_rounds_identical) {
  const auto prog =
      apps::build_app(apps::fig2_app(), instr::instrumentation::dialed);
  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};
  const auto fw = firmware_artifact::build(prog);

  // Fig. 2 data-only attack: the bounds detector's finding must be
  // identical on every path.
  const auto attack = dev.invoke(chal, apps::fig2_attack());
  const auto v_attack = expect_all_paths_equal(*fw, attack, chal, "fig2");
  EXPECT_TRUE(v_attack.has(attack_kind::data_only_attack));

  // Forged claimed result: caught by the replayed-result comparison.
  auto forged = dev.invoke(chal, apps::fig2_benign(1, 3));
  forged.claimed_result = 0xbeef;
  const auto v_forged =
      expect_all_paths_equal(*fw, forged, chal, "fig2-forged");
  EXPECT_TRUE(v_forged.has(attack_kind::result_forged));
}

TEST(dispatch, cfa_rounds_identical) {
  // Tiny-CFA mode never replays (no I-Log), but it must still verify
  // identically regardless of the dispatch pin or an offered memo.
  const auto prog =
      apps::build_app(apps::fig1_app(), instr::instrumentation::tinycfa);
  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};
  const auto fw = firmware_artifact::build(prog);

  for (const auto& [label, inv] :
       {std::pair{"benign", apps::fig1_benign(5)},
        std::pair{"attack", apps::fig1_attack(prog, 15)}}) {
    const auto rep = dev.invoke(chal, inv);
    expect_all_paths_equal(*fw, rep, chal, std::string("fig1-") + label);
  }
}

TEST(dispatch, hub_legacy_vs_fast_over_fuzz_corpus) {
  // Two identically-seeded hubs, one pinned to the legacy loop, replay
  // the checked-in wire fuzz corpus plus a valid round; every frame must
  // produce a field-identical attest_result.
  device_registry reg(master_key());
  const auto prog = build_op("int op(int a, int b) { return a + b; }",
                             "op", instr::instrumentation::dialed);
  const auto id = reg.provision(prog);

  fleet::hub_config cfg;
  verifier_hub hub_fast(reg, cfg);
  verifier_hub hub_legacy(reg, cfg);
  proto::prover_device dev(prog, reg.derive_key(id));

  std::vector<std::pair<std::string, byte_vec>> frames;
  // A well-formed accepted round (same nonce on both hubs: same seed).
  {
    const auto grant_f = hub_fast.challenge(id);
    const auto grant_l = hub_legacy.challenge(id);
    ASSERT_EQ(grant_f.nonce, grant_l.nonce);
    proto::invocation inv;
    inv.args[0] = 20;
    inv.args[1] = 22;
    const auto rep = dev.invoke(grant_f.nonce, inv);
    proto::frame_info info;
    info.device_id = id;
    info.seq = grant_f.seq;
    frames.emplace_back("valid-round", proto::encode_frame(info, rep));
  }
  const fs::path dir = DIALED_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(fs::exists(dir)) << dir << " missing";
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".bin") continue;
    std::ifstream in(e.path(), std::ios::binary);
    byte_vec bytes((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
    frames.emplace_back(e.path().filename().string(), std::move(bytes));
  }
  ASSERT_GT(frames.size(), 10u);

  for (const auto& [name, frame] : frames) {
    const auto r_fast = hub_fast.submit(frame);
    fleet::attest_result r_legacy;
    {
      dispatch_guard pin(replay_dispatch::legacy);
      r_legacy = hub_legacy.submit(frame);
    }
    expect_result_eq(r_fast, r_legacy, name);
  }
}

// ---------------------------------------------------------------------------
// Memo semantics
// ---------------------------------------------------------------------------

TEST(memo, counts_hits_misses_and_ignores_the_nonce) {
  const auto prog = build_op("int op(int a, int b) { return a + b; }",
                             "op", instr::instrumentation::dialed);
  const auto fw = firmware_artifact::build(prog);
  proto::prover_device dev(prog, test::test_key());
  const auto ks = crypto::hmac_keystate::derive(test::test_key());
  const std::vector<std::shared_ptr<policy>> no_policies;
  proto::invocation inv;
  inv.args[0] = 3;
  inv.args[1] = 4;

  replay_memo memo(8);
  std::array<std::uint8_t, 16> chal1{};
  chal1.fill(0x11);
  const auto rep1 = dev.invoke(chal1, inv);
  EXPECT_TRUE(
      fw->verify(rep1, ks, no_policies, chal1, nullptr, &memo).accepted);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.entries(), 1u);

  // A fresh round with a DIFFERENT challenge but identical attested
  // inputs: the nonce is deliberately outside the memo key (the MAC —
  // which the hub verifies per report — is what binds it), so this is a
  // hit.
  std::array<std::uint8_t, 16> chal2{};
  chal2.fill(0x22);
  const auto rep2 = dev.invoke(chal2, inv);
  ASSERT_EQ(rep1.or_bytes, rep2.or_bytes);
  EXPECT_TRUE(
      fw->verify(rep2, ks, no_policies, chal2, nullptr, &memo).accepted);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);

  // Different arguments -> different attested inputs -> miss.
  proto::invocation other;
  other.args[0] = 9;
  other.args[1] = 1;
  const auto rep3 = dev.invoke(chal1, other);
  EXPECT_TRUE(
      fw->verify(rep3, ks, no_policies, chal1, nullptr, &memo).accepted);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.entries(), 2u);
}

TEST(memo, lru_eviction_is_bounded) {
  const auto prog = build_op("int op(int a, int b) { return a + b; }",
                             "op", instr::instrumentation::dialed);
  const auto fw = firmware_artifact::build(prog);
  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};

  replay_memo memo(2);
  std::vector<attestation_report> reps;
  for (int i = 0; i < 3; ++i) {
    proto::invocation inv;
    inv.args[0] = static_cast<std::uint16_t>(i);
    inv.args[1] = 100;
    reps.push_back(dev.invoke(chal, inv));
  }
  for (const auto& rep : reps) memo.get_or_replay(*fw, rep);
  EXPECT_EQ(memo.entries(), 2u);
  EXPECT_EQ(memo.misses(), 3u);

  // reps[0] was least recently used and is gone; reps[2] still cached.
  memo.get_or_replay(*fw, reps[2]);
  EXPECT_EQ(memo.hits(), 1u);
  memo.get_or_replay(*fw, reps[0]);
  EXPECT_EQ(memo.misses(), 4u);
}

TEST(memo, hub_exposes_counters_and_policies_bypass) {
  device_registry reg(master_key());
  const auto prog = build_op("int op(int a, int b) { return a + b; }",
                             "op", instr::instrumentation::dialed);
  const auto id = reg.provision(prog);
  fleet::hub_config cfg;
  cfg.replay_memo_entries = 64;
  verifier_hub hub(reg, cfg);
  proto::prover_device dev(prog, reg.derive_key(id));
  proto::invocation inv;
  inv.args[0] = 20;
  inv.args[1] = 22;

  for (int round = 0; round < 3; ++round) {
    const auto grant = hub.challenge(id);
    const auto rep = dev.invoke(grant.nonce, inv);
    proto::frame_info info;
    info.device_id = id;
    info.seq = grant.seq;
    const auto r = hub.submit(proto::encode_frame(info, rep));
    ASSERT_EQ(r.error, proto::proto_error::none);
    EXPECT_TRUE(r.accepted());
  }
  const auto s = hub.stats();
  EXPECT_EQ(s.replay_memo_misses, 1u);
  EXPECT_EQ(s.replay_memo_hits, 2u);
  EXPECT_EQ(s.replay_memo_entries, 1u);

  // With the memo disabled every counter stays zero.
  fleet::hub_config off = cfg;
  off.replay_memo_entries = 0;
  verifier_hub hub_off(reg, off);
  const auto grant = hub_off.challenge(id);
  const auto rep = dev.invoke(grant.nonce, inv);
  proto::frame_info info;
  info.device_id = id;
  info.seq = grant.seq;
  EXPECT_TRUE(hub_off.submit(proto::encode_frame(info, rep)).accepted());
  const auto s_off = hub_off.stats();
  EXPECT_EQ(s_off.replay_memo_hits + s_off.replay_memo_misses +
                s_off.replay_memo_entries,
            0u);
}

// ---------------------------------------------------------------------------
// Top-of-address-space fail-closed behavior
// ---------------------------------------------------------------------------

TEST(wraparound, artifact_rejects_layouts_abutting_top_of_memory) {
  auto prog = build_op("int op(int a, int b) { return a + b; }", "op",
                       instr::instrumentation::dialed);
  auto bad_or = prog;
  bad_or.options.map.or_max = 0xffff;
  EXPECT_THROW(firmware_artifact::build(bad_or), error);

  auto bad_er = prog;
  bad_er.er_max = 0xfffc;
  EXPECT_THROW(firmware_artifact::build(bad_er), error);

  // The unmodified layout builds fine.
  EXPECT_NE(firmware_artifact::build(prog), nullptr);
}

TEST(wraparound, replay_operation_fails_closed_on_wrapping_bounds) {
  const auto prog = build_op("int op(int a, int b) { return a + b; }",
                             "op", instr::instrumentation::dialed);
  const auto fw = firmware_artifact::build(prog);
  proto::prover_device dev(prog, test::test_key());
  std::array<std::uint8_t, 16> chal{};
  proto::invocation inv;
  inv.args[0] = 1;
  inv.args[1] = 2;
  auto rep = dev.invoke(chal, inv);

  rep.or_max = 0xffff;
  const auto r = replay_operation(*fw, rep, {});
  EXPECT_FALSE(r.completed);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].kind, attack_kind::bounds_mismatch);

  rep.or_max = prog.options.map.or_max;
  rep.er_max = 0xfffc;
  const auto r2 = replay_operation(*fw, rep, {});
  EXPECT_FALSE(r2.completed);
  ASSERT_EQ(r2.findings.size(), 1u);
  EXPECT_EQ(r2.findings[0].kind, attack_kind::bounds_mismatch);
}

TEST(wraparound, memmap_in_or_does_not_wrap_empty) {
  emu::memory_map m;
  m.or_min = 0xff00;
  m.or_max = 0xffff;  // rejected by the verifier, but the predicate must
                      // still describe the region truthfully
  EXPECT_TRUE(m.in_or(0xffff));
  EXPECT_TRUE(m.in_or(0xff00));
  EXPECT_FALSE(m.in_or(0xfeff));
  EXPECT_FALSE(m.in_or(0x0000));
}

}  // namespace
}  // namespace dialed::verifier

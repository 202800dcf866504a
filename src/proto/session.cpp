#include "proto/session.h"

namespace dialed::proto {

namespace {

fleet::hub_config single_device_config(std::uint64_t seed) {
  fleet::hub_config cfg;
  cfg.max_outstanding = 1;  // v1 semantics: a new challenge evicts the old
  cfg.seed = seed;
  // One device needs one lock domain and no executor: the adapter is a
  // single-threaded v1 surface, so its batches run inline.
  cfg.shards = 1;
  return cfg;
}

}  // namespace

verifier_session::verifier_session(instr::linked_program prog, byte_vec key,
                                   std::uint64_t seed)
    : registry_(key), hub_(registry_, single_device_config(seed)) {
  id_ = registry_.enroll(std::move(prog), std::move(key));
}

std::array<std::uint8_t, 16> verifier_session::new_challenge() {
  // The grant's challenge_superseded note is intentionally dropped here —
  // the documented v1 behavior this adapter preserves.
  return hub_.challenge(id_).nonce;
}

fleet::attest_result verifier_session::submit_frame(
    std::span<const std::uint8_t> frame) {
  // Cheap route sniff (magic + version byte): only a v1 frame — no
  // identity, predates sequence numbers — needs the adapter's
  // seq-unchecked path, and only it pays a decode here. Everything else
  // (v2/v2.1/damaged, so the hub's error histogram sees the damage) goes
  // straight to the hub, which decodes ONCE into its thread-local
  // scratch instead of twice per report.
  if (frame.size() >= 3 && load_le16(frame, 0) == wire_magic &&
      frame[2] == wire_v1) {
    const auto decoded = decode_frame(frame);
    if (decoded.ok()) return hub_.verify_report(id_, decoded.frame.report);
  }
  return hub_.submit(frame);
}

verifier::verdict verifier_session::check(
    const verifier::attestation_report& report) {
  auto result = hub_.verify_report(id_, report);
  if (result.error == proto_error::none) return std::move(result.verdict);
  verifier::verdict v;
  v.findings.push_back(
      {verifier::attack_kind::stale_challenge,
       "challenge not outstanding (" + to_string(result.error) +
           "): report replayed, superseded or unsolicited",
       0, 0});
  return v;
}

}  // namespace dialed::proto

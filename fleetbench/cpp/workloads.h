// Workload definitions and the seeded input pools the load generator
// draws from.
//
// Emulating the prover on every round would make the generator, not the
// verifier, the bottleneck. Instead each distinct (firmware, input) is
// emulated once per seed with proto::prover_device. The resulting OR does
// not depend on the challenge, so a round re-signs the pooled OR for its
// live nonce with the device key (rot::compute_attestation_mac) and
// encodes the frame: byte for byte the frame the device would send.
// self_check() proves that on a sample of rounds before any load is sent.
#ifndef FLEETBENCH_WORKLOADS_H
#define FLEETBENCH_WORKLOADS_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "crypto/hmac.h"
#include "proto/errors.h"
#include "verifier/firmware_artifact.h"

namespace fleetbench {

/// What a round sends. Every kind but benign is an attack the verifier
/// must reject in a specific way.
enum class round_kind : std::uint8_t {
  benign,      ///< accepted
  data_only,   ///< fig2 / DoorLock overflow: data_only_attack finding
  forged_mac,  ///< one MAC bit flipped: mac_invalid finding
  replayed,    ///< an already-accepted frame re-sent: replayed_report
};
constexpr std::size_t round_kind_count = 4;

/// The verdict a round of `kind` must get over the wire.
struct expected_outcome {
  dialed::proto::proto_error error = dialed::proto::proto_error::none;
  bool accepted = false;
};
expected_outcome expected_for(round_kind kind);

/// One emulated (firmware, input): the report minus its per-round
/// challenge and MAC.
struct pool_entry {
  dialed::proto::invocation input;
  dialed::verifier::attestation_report report;
  int log_bytes = 0;  ///< CF-Log + I-Log bytes consumed
};

struct firmware_group {
  dialed::apps::app_spec app;
  dialed::instr::linked_program prog;
  std::shared_ptr<const dialed::verifier::firmware_artifact> artifact;
  /// attest_mac_header(bounds, exec = 1) ‖ ER: the verifier-side MAC
  /// prefix, for the traced run's rot.mac timing.
  dialed::byte_vec header_and_er;
  std::vector<pool_entry> benign;
  std::vector<pool_entry> attacks;  ///< data-only inputs; may be empty
};

struct device_plan {
  std::uint32_t id = 0;
  std::uint16_t group = 0;
  std::uint32_t pool_start = 0;  ///< first benign entry this device uses
  dialed::byte_vec key;          ///< K_dev
  dialed::crypto::hmac_keystate key_state;
};

struct workload {
  std::string name;
  std::size_t partitions = 1;
  /// Rounds after a device's first accepted report go out as v2.1 deltas.
  bool delta_frames = false;
  /// Benign pools hold distinct ORs and each device walks its slice of
  /// the pool, so no OR repeats within the replay memo's reach. Otherwise
  /// every device re-attests the one input at its pool_start.
  bool memo_bypass = true;
  /// Total offered rate of the paced phase, rounds per second.
  double paced_rate = 0;
  /// Per-round attack probabilities (data_only only on groups with
  /// attack inputs).
  double p_data_only = 0;
  double p_forged_mac = 0;
  double p_replayed = 0;
  std::vector<firmware_group> groups;
  std::vector<device_plan> devices;
};

/// The fleet master key the service is provisioned with.
const dialed::byte_vec& master_key();

/// Build the workload's firmware and emulate its input pools for `seed`.
/// Every pool entry's verdict is checked directly against the verifier
/// (benign accepted, data-only attacks rejected with data_only_attack).
/// Throws dialed::error on an unknown name or a pool that cannot be drawn.
workload make_workload(const std::string& name, std::uint64_t seed);

/// Delta-frame context: the OR of the device's last accepted round.
struct baseline_ref {
  std::uint32_t seq = 0;
  const pool_entry* entry = nullptr;
};

/// Encode the frame a device sends for `entry` under challenge (`nonce`,
/// `seq`): re-signs the pooled OR with `key`, flips one MAC bit when
/// `forge_mac`, and emits a v2.1 delta against `base` when it is set.
/// `scratch` is reused storage.
void build_frame(const firmware_group& g, const pool_entry& entry,
                 std::uint32_t device_id, std::uint32_t seq,
                 const std::array<std::uint8_t, 16>& nonce,
                 const dialed::crypto::hmac_keystate& key, bool forge_mac,
                 const baseline_ref* base,
                 dialed::verifier::attestation_report& scratch,
                 dialed::byte_vec& out);

/// Compare build_frame against a fresh proto::prover_device for a sample
/// of rounds per firmware and per attack kind. Throws dialed::error on the
/// first frame that differs. Returns the number of frames compared.
std::size_t self_check(const workload& w, std::uint64_t seed);

}  // namespace fleetbench

#endif  // FLEETBENCH_WORKLOADS_H

// The exact byte serialization covered by the attestation MAC. Shared
// between the device-side SW-Att (src/rot/vrased) and the verifier, so both
// compute the MAC over identical inputs:
//
//   KDF:  k' = HMAC-SHA256(K, chal)
//   MAC   = HMAC-SHA256(k', er_min‖er_max‖or_min‖or_max‖exec‖ER‖OR)
//
// with bounds little-endian, `exec` one byte, ER/OR raw memory snapshots.
//
// The MAC definition never changes; the overloads below are verifier-side
// fast paths over the same bytes. Note the KDF key k' is challenge-derived,
// so no midstate over the MAC'd message itself can be cached across
// reports — what CAN be cached is (a) the ipad/opad key schedule of K
// (hmac_keystate, per device) and (b) the fixed header‖ER prefix of the
// message as one contiguous buffer (per firmware), which the hash then
// absorbs in a single unbroken multi-block compression run.
#ifndef DIALED_ROT_ATTEST_H
#define DIALED_ROT_ATTEST_H

#include <array>
#include <cstdint>
#include <span>

#include "crypto/hmac.h"

namespace dialed::rot {

struct attest_input {
  std::uint16_t er_min = 0;
  std::uint16_t er_max = 0;
  std::uint16_t or_min = 0;
  std::uint16_t or_max = 0;
  bool exec = false;
  std::span<const std::uint8_t> challenge;  ///< 16 bytes
  std::span<const std::uint8_t> er_bytes;   ///< [er_min, er_max] inclusive
  std::span<const std::uint8_t> or_bytes;   ///< [or_min, or_max+1] inclusive
};

/// The 9-byte fixed prefix of the MAC'd message (bounds little-endian +
/// exec flag). Exposed so the verifier can precompute header‖ER once per
/// firmware artifact.
std::array<std::uint8_t, 9> attest_mac_header(std::uint16_t er_min,
                                              std::uint16_t er_max,
                                              std::uint16_t or_min,
                                              std::uint16_t or_max,
                                              bool exec);

/// Compute the attestation MAC with the device master key `key`.
crypto::hmac_sha256::mac compute_attestation_mac(
    std::span<const std::uint8_t> key, const attest_input& in);

/// Same MAC from a cached key schedule for K (skips the per-report key
/// compressions in both HMAC invocations' KDF step).
crypto::hmac_sha256::mac compute_attestation_mac(
    const crypto::hmac_keystate& key_state, const attest_input& in);

/// Verifier hot path: `header_and_er` must be
/// attest_mac_header(...) ‖ ER — the precomputed contiguous prefix.
/// Byte-identical to the attest_input overloads.
crypto::hmac_sha256::mac compute_attestation_mac(
    const crypto::hmac_keystate& key_state,
    std::span<const std::uint8_t> challenge,
    std::span<const std::uint8_t> header_and_er,
    std::span<const std::uint8_t> or_bytes);

/// The same hot path when the caller has already run the KDF for this
/// challenge (`derived_key_state` = schedule of k') — lets the verifier
/// derive k' once and MAC both the EXEC=1 and the diagnostic EXEC=0
/// message against it.
crypto::hmac_sha256::mac compute_attestation_mac_derived(
    const crypto::hmac_keystate& derived_key_state,
    std::span<const std::uint8_t> header_and_er,
    std::span<const std::uint8_t> or_bytes);

}  // namespace dialed::rot

#endif  // DIALED_ROT_ATTEST_H

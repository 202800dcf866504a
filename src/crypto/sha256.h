// SHA-256 (FIPS 180-4). VRASED's SW-Att computes HMAC-SHA256 over attested
// memory; this is the self-contained implementation backing it.
//
// The compression function is runtime-dispatched between two backends: a
// one-time `cpuid` probe picks SHA-NI when the CPU has it and scalar
// otherwise, and every `sha256` instance routes its block compressions
// through an atomic function pointer. The scalar backend is always compiled
// in — it is the differential-testing reference and the only backend on
// non-x86 builds.
#ifndef DIALED_CRYPTO_SHA256_H
#define DIALED_CRYPTO_SHA256_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/error.h"

namespace dialed::crypto {

/// Compression backends. `scalar` is the portable reference
/// implementation; `shani` uses the x86 SHA extensions.
enum class sha256_backend : std::uint8_t { scalar = 0, shani = 1 };

const char* to_string(sha256_backend b);

/// Whether this build + CPU can execute `b`. `scalar` is always true.
bool sha256_backend_supported(sha256_backend b);

/// The backend new hash computations will use. Resolved on first use from
/// the cpuid probe and the `DIALED_SHA256_IMPL=scalar|shani` environment
/// override (unknown or unsupported values fall back to the best supported
/// backend).
sha256_backend sha256_active_backend();

/// Force `b` for subsequent computations; returns false (and changes
/// nothing) if unsupported. Intended for startup/test configuration — it
/// may race with hashes already in flight on other threads (they finish on
/// whichever backend they loaded; every backend is bit-identical).
bool sha256_force_backend(sha256_backend b);

/// Incremental SHA-256. `finish()` auto-resets, so one instance can hash a
/// sequence of messages with no `reset()` calls in between.
class sha256 {
 public:
  static constexpr std::size_t digest_size = 32;
  static constexpr std::size_t block_size = 64;
  using digest = std::array<std::uint8_t, digest_size>;

  sha256() { reset(); }

  /// Restore the initial hash state; discards any buffered input.
  void reset();

  /// Absorb `data`; may be called any number of times.
  void update(std::span<const std::uint8_t> data);

  /// Pad, finalize and return the digest. The object is automatically
  /// reset to the initial state afterwards, ready for the next message.
  digest finish();

  /// Hash state captured at a 64-byte block boundary. Lets a keyed
  /// construction (HMAC) absorb its key block once and replay the
  /// resulting state per message instead of recompressing the key.
  struct midstate {
    std::array<std::uint32_t, 8> h{};
    std::uint64_t total_bytes = 0;
  };

  /// Snapshot the current state. Only valid at a block boundary (a
  /// multiple of 64 bytes absorbed): buffered partial-block input is not
  /// part of the compressed state, so capturing it would silently drop
  /// bytes — throws dialed::error instead.
  midstate save() const {
    if (buffered_ != 0) {
      throw error("sha256: midstate save off a 64-byte block boundary");
    }
    return {state_, total_bytes_};
  }

  /// Resume from a block-boundary snapshot, discarding current state.
  void restore(const midstate& m) {
    state_ = m.h;
    total_bytes_ = m.total_bytes;
    buffered_ = 0;
  }

  /// One-shot convenience.
  static digest hash(std::span<const std::uint8_t> data);

 private:
  void compress_blocks(const std::uint8_t* blocks, std::size_t n);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, block_size> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace dialed::crypto

#endif  // DIALED_CRYPTO_SHA256_H

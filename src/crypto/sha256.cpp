#include "crypto/sha256.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "crypto/sha256_backends.h"

#if DIALED_SHA256_HAVE_X86
#include <cpuid.h>
#endif

namespace dialed::crypto {

namespace {

constexpr std::uint32_t big_sigma0(std::uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
constexpr std::uint32_t big_sigma1(std::uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
constexpr std::uint32_t small_sigma0(std::uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
constexpr std::uint32_t small_sigma1(std::uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

// ---------------------------------------------------------------------------
// Backend dispatch. Resolved once (cpuid probe + DIALED_SHA256_IMPL env
// override), then every compression goes through one atomic function-pointer
// load. sha256_force_backend() swaps both atomics; hashes in flight finish
// on whichever backend they loaded — all backends are bit-identical.

using compress_fn = void (*)(std::uint32_t*, const std::uint8_t*,
                             std::size_t);

std::atomic<compress_fn> g_compress{nullptr};
std::atomic<sha256_backend> g_backend{sha256_backend::scalar};

#if DIALED_SHA256_HAVE_X86
bool cpu_has_shani() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    // The SHA-NI kernel also leans on SSSE3/SSE4.1 shuffles.
    const bool ssse3 = (ecx & (1u << 9)) != 0;
    const bool sse41 = (ecx & (1u << 19)) != 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return ssse3 && sse41 && (ebx & (1u << 29)) != 0;
  }();
  return has;
}
#endif  // DIALED_SHA256_HAVE_X86

compress_fn backend_fn([[maybe_unused]] sha256_backend b) {
#if DIALED_SHA256_HAVE_X86
  if (b == sha256_backend::shani) return detail::sha256_compress_shani;
#endif
  return detail::sha256_compress_scalar;
}

void install(sha256_backend b) {
  g_backend.store(b, std::memory_order_relaxed);
  g_compress.store(backend_fn(b), std::memory_order_release);
}

void init_dispatch() {
  // DIALED_SHA256_IMPL=scalar pins the reference path. Any other value,
  // "shani" included, means the best supported backend, so asking for
  // SHA-NI on a CPU without it falls back to scalar instead of failing.
  const char* env = std::getenv("DIALED_SHA256_IMPL");
  const bool pin_scalar = env != nullptr && std::strcmp(env, "scalar") == 0;
  install(!pin_scalar && sha256_backend_supported(sha256_backend::shani)
              ? sha256_backend::shani
              : sha256_backend::scalar);
}

compress_fn active_fn() {
  compress_fn fn = g_compress.load(std::memory_order_acquire);
  if (fn == nullptr) [[unlikely]] {
    // Thread-safe one-time resolve via the magic-static guard.
    static const bool once = (init_dispatch(), true);
    (void)once;
    fn = g_compress.load(std::memory_order_acquire);
  }
  return fn;
}

}  // namespace

namespace detail {

void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t n) {
  while (n-- != 0) {
    const std::uint8_t* block = blocks;
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) +
             w[i - 16];
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 =
          h + big_sigma1(e) + ((e & f) ^ (~e & g)) + round_k[i] + w[i];
      const std::uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
    blocks += sha256::block_size;
  }
}

}  // namespace detail

const char* to_string(sha256_backend b) {
  return b == sha256_backend::shani ? "shani" : "scalar";
}

bool sha256_backend_supported(sha256_backend b) {
  if (b == sha256_backend::scalar) return true;
#if DIALED_SHA256_HAVE_X86
  if (b == sha256_backend::shani) return cpu_has_shani();
#endif
  return false;
}

sha256_backend sha256_active_backend() {
  (void)active_fn();  // force one-time resolution
  return g_backend.load(std::memory_order_relaxed);
}

bool sha256_force_backend(sha256_backend b) {
  if (!sha256_backend_supported(b)) return false;
  (void)active_fn();  // resolve first so a later lazy init can't clobber us
  install(b);
  return true;
}

void sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
}

void sha256::compress_blocks(const std::uint8_t* blocks, std::size_t n) {
  active_fn()(state_.data(), blocks, n);
}

void sha256::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null data() — memcpy's pointer arguments
  // must never be null even for size 0 (UBSan catches it; found by the
  // wire fuzz battery hashing zero-length OR baselines).
  if (data.empty()) return;
  total_bytes_ += data.size();
  std::size_t pos = 0;
  if (buffered_ != 0) {
    const std::size_t take =
        std::min(block_size - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    pos = take;
    if (buffered_ == block_size) {
      compress_blocks(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (const std::size_t whole = (data.size() - pos) / block_size;
      whole != 0) {
    compress_blocks(data.data() + pos, whole);
    pos += whole * block_size;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

sha256::digest sha256::finish() {
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > block_size - 8) {
    std::memset(buffer_.data() + buffered_, 0, block_size - buffered_);
    compress_blocks(buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, block_size - 8 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[block_size - 8 + i] =
        static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  compress_blocks(buffer_.data(), 1);

  digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return out;
}

sha256::digest sha256::hash(std::span<const std::uint8_t> data) {
  sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace dialed::crypto

// SHA-256 (FIPS 180-4 / NIST CAVP vectors) and HMAC-SHA256 (RFC 4231).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace dialed::crypto {
namespace {

byte_vec bytes_of(const std::string& s) {
  return byte_vec(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// SHA-256 known-answer tests
// ---------------------------------------------------------------------------

struct sha_vector {
  std::string message;
  std::string digest_hex;
};

class sha256_kat : public ::testing::TestWithParam<sha_vector> {};

TEST_P(sha256_kat, matches_reference_digest) {
  const auto& v = GetParam();
  const auto d = sha256::hash(bytes_of(v.message));
  EXPECT_EQ(to_hex(d), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    nist, sha256_kat,
    ::testing::Values(
        sha_vector{"",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
                   "7852b855"},
        sha_vector{"abc",
                   "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
                   "f20015ad"},
        sha_vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
                   "19db06c1"},
        sha_vector{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                   "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                   "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac4503"
                   "7afee9d1"},
        sha_vector{"The quick brown fox jumps over the lazy dog",
                   "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf"
                   "37c9e592"}));

TEST(sha256, million_a) {
  sha256 h;
  const byte_vec chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(sha256, reset_restores_initial_state) {
  sha256 h;
  h.update(bytes_of("garbage"));
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Incremental hashing must be chunking-invariant.
class sha256_chunking : public ::testing::TestWithParam<int> {};

TEST_P(sha256_chunking, incremental_equals_oneshot) {
  const int chunk = GetParam();
  byte_vec msg(257);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto expect = sha256::hash(msg);
  sha256 h;
  for (std::size_t pos = 0; pos < msg.size();
       pos += static_cast<std::size_t>(chunk)) {
    const std::size_t n =
        std::min<std::size_t>(static_cast<std::size_t>(chunk),
                              msg.size() - pos);
    h.update(std::span(msg).subspan(pos, n));
  }
  EXPECT_EQ(h.finish(), expect);
}

INSTANTIATE_TEST_SUITE_P(chunks, sha256_chunking,
                         ::testing::Values(1, 2, 3, 7, 31, 63, 64, 65, 128,
                                           255));

// Boundary lengths around the padding edge (55/56/63/64 bytes).
class sha256_lengths : public ::testing::TestWithParam<int> {};

TEST_P(sha256_lengths, consistent_with_prefix_property) {
  // hash(m) must differ from hash(m || 0x00) — trivial but catches padding
  // bugs at block boundaries.
  const int n = GetParam();
  byte_vec msg(static_cast<std::size_t>(n), 0xab);
  byte_vec ext = msg;
  ext.push_back(0x00);
  EXPECT_NE(sha256::hash(msg), sha256::hash(ext));
}

INSTANTIATE_TEST_SUITE_P(boundaries, sha256_lengths,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65,
                                           119, 120, 127, 128));

// ---------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231)
// ---------------------------------------------------------------------------

TEST(hmac, rfc4231_case1) {
  const byte_vec key(20, 0x0b);
  const auto mac = hmac_sha256::compute(key, bytes_of("Hi There"));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(hmac, rfc4231_case2) {
  const auto mac = hmac_sha256::compute(
      bytes_of("Jefe"), bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(hmac, rfc4231_case3) {
  const byte_vec key(20, 0xaa);
  const byte_vec data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256::compute(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(hmac, rfc4231_case6_long_key) {
  const byte_vec key(131, 0xaa);
  const auto mac = hmac_sha256::compute(
      key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(hmac, rfc4231_case7_long_key_and_data) {
  const byte_vec key(131, 0xaa);
  const auto mac = hmac_sha256::compute(
      key, bytes_of("This is a test using a larger than block-size key and a "
                    "larger than block-size data. The key needs to be hashed "
                    "before being used by the HMAC algorithm."));
  EXPECT_EQ(to_hex(mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(hmac, incremental_equals_oneshot) {
  const byte_vec key = from_hex("000102030405060708090a0b0c0d0e0f");
  byte_vec data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  hmac_sha256 h(key);
  h.update(std::span(data).subspan(0, 100));
  h.update(std::span(data).subspan(100, 150));
  h.update(std::span(data).subspan(250));
  EXPECT_EQ(h.finish(), hmac_sha256::compute(key, data));
}

TEST(hmac, different_keys_different_macs) {
  const byte_vec k1(32, 0x01), k2(32, 0x02);
  const auto data = bytes_of("same message");
  EXPECT_NE(hmac_sha256::compute(k1, data), hmac_sha256::compute(k2, data));
}

TEST(hmac, equal_is_constant_time_comparison_api) {
  hmac_sha256::mac a{}, b{};
  EXPECT_TRUE(hmac_sha256::equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(hmac_sha256::equal(a, b));
  b[31] = 0;
  b[0] = 0x80;
  EXPECT_FALSE(hmac_sha256::equal(a, b));
}

// ---------------------------------------------------------------------------
// hex helpers
// ---------------------------------------------------------------------------

TEST(bytes, hex_round_trip) {
  const byte_vec v = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(v), "0001deadbeefff");
  EXPECT_EQ(from_hex("0001deadbeefff"), v);
  EXPECT_EQ(from_hex("0001DEADBEEFFF"), v);
}

TEST(bytes, from_hex_rejects_malformed) {
  EXPECT_THROW(from_hex("abc"), error);
  EXPECT_THROW(from_hex("zz"), error);
}

TEST(bytes, le16_round_trip) {
  byte_vec buf(4, 0);
  store_le16(buf, 1, 0xbeef);
  EXPECT_EQ(buf[1], 0xef);
  EXPECT_EQ(buf[2], 0xbe);
  EXPECT_EQ(load_le16(buf, 1), 0xbeef);
}

// ---------------------------------------------------------------------------
// SHA-256 backend differential battery (PR 8)
//
// Every backend the CPU supports must produce byte-identical digests to
// the scalar reference, over adversarial lengths (block boundaries, the
// padding cliff at 55/56, multi-block bulk runs) AND over the checked-in
// wire fuzz corpus — real frame bytes, not synthetic patterns. Backends
// the CPU lacks are SKIPPED, not failed: the suite must pass on any
// x86-64 (and, on other architectures, collapses to scalar-vs-scalar).
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random fill (splitmix64), so failures replay.
byte_vec prng_bytes(std::size_t n, std::uint64_t seed) {
  byte_vec out(n);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    out[i] = static_cast<std::uint8_t>((z ^ (z >> 31)) & 0xff);
  }
  return out;
}

/// RAII backend override: forces `b` for the test body, restores the
/// environment's pick afterwards even on assertion failure.
class forced_backend {
 public:
  explicit forced_backend(sha256_backend b)
      : prev_(sha256_active_backend()), ok_(sha256_force_backend(b)) {}
  ~forced_backend() { sha256_force_backend(prev_); }
  bool ok() const { return ok_; }

 private:
  sha256_backend prev_;
  bool ok_;
};

class sha256_backends : public ::testing::TestWithParam<sha256_backend> {
 protected:
  void SetUp() override {
    if (!sha256_backend_supported(GetParam())) {
      GTEST_SKIP() << "backend " << to_string(GetParam())
                   << " not supported on this CPU/build";
    }
  }
};

TEST_P(sha256_backends, matches_scalar_on_boundary_lengths) {
  // 0/1: empty+tiny. 55/56: the padding cliff (56 spills a second
  // block). 63/64/65: block boundary. 127..129: a two-block bulk
  // compression ending just short of, on, or past a block. 4096: bulk.
  // 65535: or_max, the largest OR a wire frame can carry. 70000: beyond
  // any frame, multi-block remainder mix.
  const std::size_t lengths[] = {0,  1,  55,  56,  63,   64,   65,
                                 96, 127, 128, 129, 4096, 65535, 70000};
  for (const std::size_t n : lengths) {
    const byte_vec msg = prng_bytes(n, 0xd1a1ed00ull + n);
    sha256::digest want;
    {
      forced_backend f(sha256_backend::scalar);
      ASSERT_TRUE(f.ok());
      want = sha256::hash(msg);
    }
    forced_backend f(GetParam());
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(to_hex(sha256::hash(msg)), to_hex(want))
        << "backend " << to_string(GetParam()) << " diverges at length "
        << n;
  }
}

TEST_P(sha256_backends, matches_scalar_on_incremental_chunking) {
  // Chunked updates stress the partial-block buffer against the
  // multi-block bulk path: every chunk size crosses block boundaries at
  // different phases.
  const byte_vec msg = prng_bytes(3000, 0xfeedface);
  sha256::digest want;
  {
    forced_backend f(sha256_backend::scalar);
    ASSERT_TRUE(f.ok());
    want = sha256::hash(msg);
  }
  forced_backend f(GetParam());
  ASSERT_TRUE(f.ok());
  for (const std::size_t chunk : {1u, 7u, 64u, 65u, 191u, 1024u}) {
    sha256 h;
    for (std::size_t off = 0; off < msg.size(); off += chunk) {
      h.update(std::span<const std::uint8_t>(msg).subspan(
          off, std::min(chunk, msg.size() - off)));
    }
    EXPECT_EQ(to_hex(h.finish()), to_hex(want))
        << "backend " << to_string(GetParam()) << " chunk " << chunk;
  }
}

TEST_P(sha256_backends, matches_scalar_on_wire_fuzz_corpus) {
  // Real frame bytes from the wire fuzz battery's checked-in corpus.
  const std::filesystem::path dir = DIALED_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::exists(dir))
      << "fuzz corpus missing: " << dir;
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << entry.path();
    byte_vec data((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    sha256::digest want;
    {
      forced_backend f(sha256_backend::scalar);
      ASSERT_TRUE(f.ok());
      want = sha256::hash(data);
    }
    forced_backend f(GetParam());
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(to_hex(sha256::hash(data)), to_hex(want))
        << "backend " << to_string(GetParam()) << " diverges on corpus "
        << entry.path();
    ++files;
  }
  EXPECT_GT(files, 0u) << "corpus directory is empty";
}

TEST_P(sha256_backends, hmac_keystate_equals_from_scratch) {
  forced_backend f(GetParam());
  ASSERT_TRUE(f.ok());
  for (const std::size_t key_len : {16u, 32u, 64u, 65u, 200u}) {
    const byte_vec key = prng_bytes(key_len, 0x4b4b + key_len);
    const byte_vec msg = prng_bytes(777, 0x6d6d);
    const auto ks = hmac_keystate::derive(key);
    EXPECT_EQ(to_hex(hmac_sha256::compute(ks, msg)),
              to_hex(hmac_sha256::compute(key, msg)))
        << "keystate MAC diverges, key length " << key_len;
  }
}

INSTANTIATE_TEST_SUITE_P(all, sha256_backends,
                         ::testing::Values(sha256_backend::scalar,
                                           sha256_backend::shani),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(sha256_dispatch, active_backend_is_supported) {
  EXPECT_TRUE(sha256_backend_supported(sha256_active_backend()));
  // scalar must exist everywhere — it is the reference and the fallback.
  EXPECT_TRUE(sha256_backend_supported(sha256_backend::scalar));
}

TEST(sha256_dispatch, force_rejects_unsupported_and_keeps_current) {
  // Exercise only when some backend genuinely is unsupported (non-x86
  // builds / CPUs without SHA-NI); otherwise nothing to observe.
  const auto before = sha256_active_backend();
  for (const auto b : {sha256_backend::scalar, sha256_backend::shani}) {
    if (sha256_backend_supported(b)) continue;
    EXPECT_FALSE(sha256_force_backend(b));
    EXPECT_EQ(sha256_active_backend(), before);
  }
}

// ---------------------------------------------------------------------------
// midstate save/restore + finish() auto-reset (PR 8)
// ---------------------------------------------------------------------------

TEST(sha256_midstate, save_restore_resumes_at_block_boundary) {
  const byte_vec head = prng_bytes(128, 1);  // two whole blocks
  const byte_vec tail = prng_bytes(100, 2);
  sha256 ref;
  ref.update(head);
  ref.update(tail);
  const auto want = ref.finish();

  sha256 h;
  h.update(head);
  const auto mid = h.save();
  // Resume from the midstate in a FRESH object: the whole point is
  // skipping the head's compressions.
  sha256 resumed;
  resumed.restore(mid);
  resumed.update(tail);
  EXPECT_EQ(to_hex(resumed.finish()), to_hex(want));
  // The midstate is reusable: restore again, different tail.
  sha256 again;
  again.restore(mid);
  again.update(head);  // any other continuation
  sha256 ref2;
  ref2.update(head);
  ref2.update(head);
  EXPECT_EQ(to_hex(again.finish()), to_hex(ref2.finish()));
}

TEST(sha256_midstate, save_off_boundary_throws) {
  sha256 h;
  h.update(prng_bytes(65, 3));  // one byte past a block boundary
  EXPECT_THROW((void)h.save(), error);
}

TEST(sha256_finish, auto_resets_for_reuse) {
  const byte_vec a = bytes_of("first message");
  const byte_vec b = bytes_of("second message");
  sha256 h;
  h.update(a);
  const auto da = h.finish();
  h.update(b);  // no explicit reset(): finish() re-armed the object
  const auto db = h.finish();
  EXPECT_EQ(to_hex(da), to_hex(sha256::hash(a)));
  EXPECT_EQ(to_hex(db), to_hex(sha256::hash(b)));
}

TEST(hmac_keystate, finish_rearms_for_same_key) {
  const byte_vec key = prng_bytes(32, 4);
  const auto ks = hmac_keystate::derive(key);
  hmac_sha256 mac(ks);
  mac.update(bytes_of("one"));
  const auto m1 = mac.finish();
  mac.update(bytes_of("two"));  // reuse without re-keying
  const auto m2 = mac.finish();
  EXPECT_EQ(to_hex(m1), to_hex(hmac_sha256::compute(key, bytes_of("one"))));
  EXPECT_EQ(to_hex(m2), to_hex(hmac_sha256::compute(key, bytes_of("two"))));
}

}  // namespace
}  // namespace dialed::crypto

// Fleet verifier hub: the many-device generalization of the paper's §III
// one-verifier/one-prover protocol. One hub serves every provisioned
// device, with a per-device challenge table (many concurrently outstanding
// challenges), expiry on a monotonic tick clock, and per-device
// anti-replay bookkeeping.
//
// Protocol (wire v2; v1 layout documented beside it in src/proto/wire.h):
//
//      Vrf hub                                       Prv (device d)
//        |                                                |
//        |  challenge(d) -> grant {nonce, seq}            |
//        |----------- nonce, seq ------------------------>|
//        |                                                | run attested op,
//        |                                                | SW-Att MACs with
//        |                                                | K_dev over nonce
//        |<---------- wire v2 frame ----------------------|
//        |   [magic|ver=2|flags|device_id|seq|bounds|     |
//        |    result|halt|nonce|MAC|or_len|OR|CRC16]      |
//        |  submit(frame) -> attest_result                |
//        |    - frame damaged        -> transport error   |
//        |    - device_id unknown    -> unknown_device    |
//        |    - v2.1 delta names a baseline the hub does  |
//        |      not hold             -> baseline_mismatch |
//        |      (nonce NOT burned: resend as full frame)  |
//        |    - seq != grant seq     -> sequence_mismatch |
//        |    - nonce consumed       -> replayed_report   |
//        |    - nonce evicted       -> challenge_superseded
//        |    - nonce past TTL       -> challenge_expired |
//        |    - nonce never issued   -> stale_nonce       |
//        |    - else: full §III verification -> verdict   |
//
// Wire v2.1 delta frames (report compression)
// -------------------------------------------
// A v2.1 frame carries the OR as a sparse delta against the OR of the
// last report the hub ACCEPTED for that device — the per-device
// `or_baseline` (sequence-stamped hash + bytes, updated only on an
// accepted verdict, journaled through the persist sink so it survives
// restarts). submit() resolves the baseline under the shard lock,
// reconstructs the full OR OUTSIDE it, and then verifies exactly as if a
// full frame had arrived — the MAC covers the reconstructed OR, so a
// delta that reconstructs the wrong bytes is rejected like any forgery.
// A delta naming a baseline the hub does not hold (fresh device, stale
// seq, hash desync, restart that lost state) is answered with the typed
// baseline_mismatch error WITHOUT consuming the frame's nonce: the
// prover falls back to a full frame for the same challenge.
//
// Challenge lifecycle: issued -> (consumed | superseded | expired), with a
// bounded per-device memory of retired nonces so a late report gets the
// precise typed error instead of a generic rejection.
//
// Firmware sharing
// ----------------
// No per-device verifier state on the hot path: each registry record
// carries a shared immutable verifier::firmware_artifact (one per image,
// interned by fleet::firmware_catalog) that verify runs off with the
// record's key, replaying on a per-thread recycled emu::machine. Memory
// is O(firmwares), not O(devices). Only core(id), the policy surface,
// materializes a per-device op_verifier (artifact + key + policies).
//
// Concurrency model
// -----------------
// reactor -> dispatcher -> one executor -> shard locks. The net reactor
// frames reports; the batcher's dispatcher thread calls verify_batch as
// the calling thread of the process's ONE dialed::thread_pool
// (`hub_config::executor`; partitioned_fleet owns it and shares it with
// every partition and the router), whose workers run submit() per frame.
// Hubs own no threads. Per-device state (challenge table, retired nonces,
// policy context) lives in one of `hub_config::shards` shards (hash of
// the id), each with its own mutex and nonce RNG stream. Every public
// entry point is thread-safe and takes only the owning shard's lock:
//
//   - Nonce bookkeeping (match, seq check, consume) happens under it; MAC
//     and replay run OUTSIDE it. The nonce is consumed before the lock
//     drops, so of two concurrent submits of one frame exactly one sees
//     the nonce (§III one report per nonce; the other: replayed_report).
//   - `tick`/`now`/`stats` use atomics and may race freely.
//   - `core(id)`'s op_verifier is verify-const, but attached policies'
//     hooks run on whichever thread verifies — possibly two reports of
//     one device at once — so a stateful policy synchronizes itself (the
//     built-ins are stateless). Mutating a core (add_policy) is NOT
//     synchronized against traffic: attach policies before serving.
//
// The device_registry must outlive the hub; records, once provisioned,
// are immutable (concurrent provisioning is the registry's shared_mutex).
#ifndef DIALED_FLEET_VERIFIER_HUB_H
#define DIALED_FLEET_VERIFIER_HUB_H

#include <array>
#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <random>

#include "fleet/hub_like.h"
#include "fleet/persist.h"
#include "fleet/registry.h"
#include "proto/wire.h"
#include "verifier/verifier.h"

namespace dialed::fleet {

using proto::proto_error;

struct hub_config {
  /// Outstanding challenges a device may hold at once; issuing beyond this
  /// evicts (supersedes) the oldest. 1 reproduces the v1 session behavior.
  std::uint32_t max_outstanding = 8;
  /// Challenge TTL in hub ticks; 0 = challenges never expire.
  std::uint64_t challenge_ttl = 0;
  /// Retired nonces remembered per device (replay/supersede/expiry
  /// classification window).
  std::size_t retired_memory = 64;
  /// Makes challenge generation reproducible in tests. Shard s draws its
  /// nonces from an independent stream seeded with `seed ^ splitmix(s)`.
  std::uint64_t seed = 0x1a2b3c4d5e6f7788ull;
  /// Device-state shards (each its own lock + RNG). 0 = pick a default.
  /// 1 reproduces the old fully-serialized hub.
  std::uint32_t shards = 0;
  /// The executor verify_batch fans out on (not owned; must outlive the
  /// hub). nullptr runs every batch inline on the calling thread.
  thread_pool* executor = nullptr;
  /// Durability sink (src/store/fleet_store): challenge issuance, nonce
  /// retirement and verdicts are journaled through it — issuance and
  /// retirement UNDER the owning shard lock, so the on-disk order matches
  /// the order the hub committed to. nullptr = no persistence. Must
  /// outlive the hub.
  persist_sink* sink = nullptr;
  /// Pipeline observability (src/obs): per-stage latency histograms and
  /// the slow/rejected flight recorder. `obs.enabled = false` removes
  /// every clock read from the verify path (the overhead bench baseline).
  obs::pipeline_config obs{};
  /// Replay-memoization capacity (results, LRU-bounded): repeated rounds
  /// with byte-identical attested inputs skip the §III replay entirely —
  /// the MAC is still verified per report, and devices with policies
  /// attached bypass the memo. 0 disables memoization.
  std::size_t replay_memo_entries = 1024;
};

class verifier_hub : public hub_like {
 public:
  explicit verifier_hub(const device_registry& registry,
                        hub_config cfg = {});
  ~verifier_hub() override;

  /// Draw a fresh challenge for a device. Many challenges may be
  /// outstanding per device (up to cfg.max_outstanding). Thread-safe.
  challenge_grant challenge(device_id id) override;

  /// Decode a wire frame (any supported version) and verify it. v1 frames
  /// carry no device id: unknown_device (use proto::verifier_session).
  /// v2.1 deltas are rebuilt against the device's or_baseline first (see
  /// the file comment). Thread-safe, reentrant (thread-local decode
  /// scratch). Zero-copy: a full frame's OR is verified in place (copied
  /// only when accepted, as the delta baseline); `frame` is not read
  /// after submit returns.
  attest_result submit(std::span<const std::uint8_t> frame) override;

  /// Verify an already-decoded report for a device, requiring the frame's
  /// sequence number to match the one its challenge was issued with.
  attest_result verify_report(device_id id, std::uint32_t seq,
                              const verifier::attestation_report& report);

  /// Sequence-unchecked variant for v1 adapters that predate sequence
  /// numbers. Deliberately NOT reachable from `submit`: skipping the seq
  /// check must be a caller decision, never an in-band wire value.
  attest_result verify_report(device_id id,
                              const verifier::attestation_report& report);

  /// Advance the monotonic clock; challenges older than cfg.challenge_ttl
  /// ticks are retired as expired. Thread-safe. Journaled (concurrent
  /// ticks may journal out of order; replay keeps the maximum).
  void tick(std::uint64_t n) override {
    const std::uint64_t now =
        now_.fetch_add(n, std::memory_order_relaxed) + n;
    if (cfg_.sink != nullptr) cfg_.sink->on_tick(now);
  }
  using hub_like::tick;  // keep the zero-arg tick() visible here
  std::uint64_t now() const override {
    return now_.load(std::memory_order_relaxed);
  }

  /// Per-device verifier context, e.g. to attach app policies. Devices
  /// without one verify straight off the shared per-firmware artifact;
  /// calling core() materializes the (cheap: artifact pointer + key)
  /// per-device context, which verification then uses instead. Throws
  /// dialed::error for an unknown device. Construction is thread-safe;
  /// mutating the returned context concurrently with verification is not.
  verifier::op_verifier& core(device_id id);

  /// Outstanding challenges for a device, EXCLUDING entries already past
  /// cfg.challenge_ttl (they are dead — merely not yet swept into the
  /// retired history by a challenge/verify on that device).
  std::size_t outstanding(device_id id) const override;

  /// Re-point verify_batch (a promoted standby joining a fleet's
  /// executor). Call before the hub serves traffic.
  void set_executor(thread_pool* executor) { cfg_.executor = executor; }

  /// Snapshot of the hub's monotonic counters. Thread-safe; the hub-level
  /// fields are lock-free, the per-device breakdown briefly takes each
  /// shard lock in turn. Pass include_per_device = false for the cheap
  /// lock-free hub-level scalars only (the store's snapshot writer does —
  /// it gets the per-device rows from dump_devices() anyway).
  hub_stats stats(bool include_per_device = true) const override;

  /// Per-stage latency histograms for every report this hub verified.
  obs::pipeline_snapshot pipeline() const override { return obs_.snapshot(); }

  /// Slowest + rejected span traces (bounded flight-recorder rings).
  obs::trace_dump traces() const override { return obs_.traces(); }

  // ---- persistence surface (src/store/fleet_store) --------------------

  /// Re-inject persisted state: the clock, hub-level counters, and every
  /// device's challenge table / retired-nonce history / per-device
  /// counters (retired histories longer than cfg.retired_memory keep only
  /// the newest entries). Call once, before serving traffic — NOT
  /// thread-safe against concurrent hub use, and never journals to the
  /// sink. Also reseeds each shard's nonce stream with
  /// `counters.challenges_issued` as an epoch, so a restarted hub never
  /// re-draws the pre-crash nonce sequence a fixed seed would repeat.
  void restore(std::uint64_t now,
               std::span<const device_restore> devices,
               const hub_stats& counters);

  /// Dump every device's anti-replay state for a snapshot (shard locks
  /// taken one at a time; concurrent traffic lands in the WAL instead —
  /// see fleet_store::compact's quiescence contract).
  std::vector<device_restore> dump_devices() const;

  thread_pool* executor() const override { return cfg_.executor; }

 protected:
  void batch_begin() override;
  void batch_end(std::size_t frames, bool completed) override;

 private:
  struct challenge_entry {
    std::array<std::uint8_t, 16> nonce{};
    std::uint32_t seq = 0;
    std::uint64_t issued_at = 0;
  };

  struct retired_nonce {
    std::array<std::uint8_t, 16> nonce{};
    nonce_fate fate = nonce_fate::consumed;
  };

  /// Per-device counters, written with relaxed atomics: the accept/reject
  /// bumps happen AFTER the shard lock is dropped (phase 2 of
  /// verify_impl), racing only with stats()/dump_devices readers.
  struct atomic_device_counters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected_verdict{0};
    std::atomic<std::uint64_t> replayed{0};
    std::atomic<std::uint64_t> rejected_protocol{0};

    device_counters snapshot() const {
      device_counters c;
      c.accepted = accepted.load(std::memory_order_relaxed);
      c.rejected_verdict =
          rejected_verdict.load(std::memory_order_relaxed);
      c.replayed = replayed.load(std::memory_order_relaxed);
      c.rejected_protocol =
          rejected_protocol.load(std::memory_order_relaxed);
      return c;
    }
  };

  /// The wire v2.1 delta baseline, guarded by the owning shard's mutex:
  /// written only under the lock (accepted verdicts, restore), read under
  /// the lock (delta resolution copies the bytes out before unlocking —
  /// reconstruction itself never holds the lock).
  struct or_baseline {
    bool valid = false;
    std::uint32_t seq = 0;
    std::array<std::uint8_t, 8> hash{};  ///< proto::or_baseline_hash
    byte_vec bytes;                      ///< full OR of the accepted round
  };

  struct device_state {
    std::deque<challenge_entry> outstanding;  ///< ordered by issue time
    std::deque<retired_nonce> retired;        ///< bounded history
    or_baseline baseline;
    atomic_device_counters counters;
    /// Per-device POLICY context, materialized only by core(id) — the
    /// plain hot path verifies straight off the registry record's shared
    /// firmware artifact and never allocates here. Built under the shard
    /// lock, verified outside it; the pointee's address is stable (map
    /// node + unique_ptr).
    std::unique_ptr<verifier::op_verifier> ctx;
    std::uint32_t next_seq = 1;
  };

  /// One lock domain: a slice of the fleet's devices plus the RNG stream
  /// their nonces are drawn from.
  struct shard {
    mutable std::mutex mu;
    std::map<device_id, device_state> states;
    std::mt19937_64 rng;
  };

  /// Relaxed atomics behind stats(); written from any verify/challenge
  /// thread.
  struct counters {
    std::atomic<std::uint64_t> challenges_issued{0};
    std::atomic<std::uint64_t> challenges_expired{0};
    std::atomic<std::uint64_t> challenges_superseded{0};
    std::atomic<std::uint64_t> reports_accepted{0};
    std::atomic<std::uint64_t> reports_rejected_verdict{0};
    std::array<std::atomic<std::uint64_t>, proto::proto_error_count>
        rejected_by_error{};
    // verify_batch gauges (never restored — process-local by design).
    std::atomic<std::uint64_t> verify_batches{0};
    std::atomic<std::uint64_t> verify_batch_frames{0};
    std::atomic<std::uint64_t> last_batch_frames{0};
    std::atomic<std::uint64_t> inflight_batches{0};
  };

  shard& shard_for(device_id id);
  const shard& shard_for(device_id id) const;
  void retire(device_id id, device_state& st, std::size_t index,
              nonce_fate fate);
  void expire_stale(device_id id, device_state& st, std::uint64_t now);
  /// Bump the hub histogram (and the per-device protocol/replay counter
  /// when `st` is known), then journal the verdict. Returns `r` so reject
  /// paths read `return rejected(...)`.
  attest_result rejected(attest_result r, device_state* st);
  /// Looks up (or lazily builds) the device's policy context. Caller must
  /// hold the shard lock. Returns nullptr for an unknown device.
  verifier::op_verifier* core_locked(shard& sh, device_id id);
  /// The common verification core. Takes a report VIEW: `report.or_bytes`
  /// may borrow the caller's frame buffer (submit's zero-copy path) and is
  /// only read for the duration of the call — adopt_baseline copies the
  /// bytes it keeps.
  attest_result verify_impl(device_id id, std::uint32_t seq,
                            bool check_seq,
                            const verifier::report_view& report,
                            obs::span_recorder& sp);
  /// Fold the finished span into the hub's histograms/flight recorder and
  /// pass the result through — every top-level verify path returns
  /// through this.
  attest_result observed(const obs::span_recorder& sp, attest_result r);
  /// v2.1 path: check the frame's baseline reference against the device's
  /// or_baseline (under the shard lock), copy the baseline bytes out, and
  /// reconstruct the full OR into report.or_bytes (outside the lock).
  /// nullopt on success; the fully-bookkept rejection (unknown_device /
  /// baseline_mismatch) otherwise — in which case NO challenge state was
  /// touched, so the prover can retry the same nonce with a full frame.
  std::optional<attest_result> reconstruct_delta(
      device_id id, std::uint32_t seq, const proto::or_delta& delta,
      verifier::attestation_report& report);
  /// Adopt `or_bytes` as the device's delta baseline for round `seq` if
  /// it is newer than the current one (accepted verdicts only; takes the
  /// shard lock; journals under it). COPIES the bytes — the span may
  /// alias a borrowed frame buffer that dies when submit returns.
  void adopt_baseline(device_id id, std::uint32_t seq,
                      std::span<const std::uint8_t> or_bytes);

  const device_registry& registry_;
  hub_config cfg_;
  std::atomic<std::uint64_t> now_{0};
  std::vector<std::unique_ptr<shard>> shards_;
  mutable counters stats_;
  obs::pipeline_obs obs_;
  /// Shared replay-result cache (null when cfg.replay_memo_entries == 0);
  /// internally synchronized, consulted only on the artifact hot path.
  std::unique_ptr<verifier::replay_memo> memo_;
};

}  // namespace dialed::fleet

#endif  // DIALED_FLEET_VERIFIER_HUB_H

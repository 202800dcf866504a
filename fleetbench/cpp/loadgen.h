// The load generator: one thread, two TCP connections, D simulated
// devices. Each device runs the real protocol round over the wire — a
// challenge request, then its report, then it waits for the verdict — so
// it is a closed loop with one round in flight per device.
//
//   sat    zero think time: a device starts its next round as soon as its
//          verdict arrives (throughput and CPU).
//   paced  every device has the same fixed period, so the offered rate is
//          fixed. A round is due on that schedule; when the previous
//          round is still in flight at its due time it starts late, and
//          its latency still runs from the due time (open-loop timing).
//
// Every verdict is checked against the round's expected outcome
// (expected_for); a mismatch, a protocol error, or no answer by the end of
// the phase's drain counts as a failed round.
#ifndef FLEETBENCH_LOADGEN_H
#define FLEETBENCH_LOADGEN_H

#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "common.h"
#include "net/framer.h"
#include "workloads.h"

namespace fleetbench {

/// One phase's counts. The window is cut into equal sub-windows so that
/// rates, CPU and latency percentiles can be reported as the median over
/// sub-windows, which a short stall of the shared host cannot move.
struct phase_stats {
  double seconds = 0;              ///< measurement window length
  double sub_window_s = 0;
  std::vector<std::uint64_t> win_verdicts;  ///< correct verdicts received
  std::vector<std::uint64_t> win_cpu_ns;    ///< process minus generator CPU
  std::vector<std::vector<double>> win_latency_ms;  ///< paced, by due time
  std::uint64_t attempted = 0;     ///< rounds started in the window
  std::uint64_t failed = 0;        ///< wrong verdict + error + unanswered
  std::uint64_t wrong_verdict = 0;
  std::uint64_t protocol_error = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t verdicts_in_window = 0;
  std::array<std::uint64_t, round_kind_count> by_kind{};
  std::uint64_t gen_cpu_ns = 0;    ///< generator thread, over the window
  /// paced: how late the generator started each round — from the later of
  /// its due time and its device's previous verdict to the challenge
  /// request being queued.
  std::vector<double> late_ms;
  std::uint64_t frame_bytes = 0;   ///< report frames sent (sum)
  std::uint64_t frames = 0;
  std::uint64_t log_bytes = 0;     ///< CF-Log + I-Log bytes of those reports

  /// Append another phase of the same kind (its sub-windows follow ours).
  phase_stats& operator+=(const phase_stats& o);
};

class load_generator {
 public:
  /// Connects to the service on 127.0.0.1:`port`. Device round streams
  /// derive from `seed`. `spans` records rounds when enabled.
  load_generator(const workload& w, std::uint16_t port, std::uint64_t seed,
                 span_log& spans);
  ~load_generator();

  load_generator(const load_generator&) = delete;
  load_generator& operator=(const load_generator&) = delete;

  /// Closed loop, zero think time, for `seconds` cut into `windows`
  /// sub-windows, then drain.
  phase_stats run_sat(double seconds, std::size_t windows = 1);
  /// Fixed total rate `rate` (rounds/s) for `seconds`, then drain.
  phase_stats run_paced(double seconds, double rate, std::size_t windows = 1);

  /// One benign round of device `dev` with nothing else in flight, timed
  /// per leg: challenge request -> grant, report -> verdict.
  struct round_legs {
    std::uint64_t challenge_sent = 0, challenge_recv = 0;
    std::uint64_t report_sent = 0, verdict_recv = 0;
    bool ok = false;
  };
  round_legs single_round(std::size_t dev);

  // ---- direct access for the traced probe -----------------------------
  std::size_t device_count() const { return devs_.size(); }
  /// Build the frame device `dev` would send for a benign round under
  /// (nonce, seq) — delta-encoded when the workload uses deltas and the
  /// device has an accepted baseline. Returns the pool entry used.
  const pool_entry& build_benign(std::size_t dev, std::uint32_t seq,
                                 const std::array<std::uint8_t, 16>& nonce,
                                 dialed::byte_vec& out);
  /// The baseline OR a delta frame of `dev` is reconstructed against
  /// (empty when none).
  std::span<const std::uint8_t> baseline_or(std::size_t dev) const;
  /// Record that the service accepted `dev`'s report for round `seq`.
  void note_accepted(std::size_t dev, std::uint32_t seq,
                     const pool_entry& entry);
  /// Stray responses: answers for no round in flight (should be 0).
  std::uint64_t stray_responses() const { return stray_; }

 private:
  enum class stage : std::uint8_t { idle, challenge, report };
  enum class mode : std::uint8_t { sat, paced, single };

  struct device_state {
    std::uint32_t id = 0;
    std::uint16_t group = 0;
    std::uint8_t conn = 0;
    rng stream;
    std::uint64_t cursor = 0;  ///< rounds drawn from the benign pool
    // The round in flight.
    stage st = stage::idle;
    round_kind kind = round_kind::benign;
    const pool_entry* entry = nullptr;
    std::uint64_t round_id = 0;
    std::uint64_t due_ns = 0, challenge_sent = 0, challenge_recv = 0,
                  report_sent = 0;
    std::uint64_t idle_since = 0;  ///< when the previous round finished
    std::uint32_t expect_seq = 0;
    dialed::byte_vec frame;
    // Protocol state carried across rounds.
    bool has_baseline = false;
    baseline_ref baseline;
    bool has_last_accepted = false;
    dialed::byte_vec last_accepted;  ///< for replayed rounds
    const pool_entry* last_accepted_entry = nullptr;
  };

  struct connection {
    int fd = -1;
    dialed::byte_vec out;
    std::size_t out_pos = 0;
    bool want_write = false;
    dialed::net::stream_framer framer;
  };

  struct due_item {
    std::uint64_t due;
    std::size_t dev;
    bool operator>(const due_item& o) const { return due > o.due; }
  };

  phase_stats run(mode m, double seconds, double rate, std::size_t windows);
  void close_windows(std::uint64_t now);
  /// Sub-window of the current phase that time `t` falls in.
  std::size_t window_of(std::uint64_t t) const;
  void start_round(std::size_t dev, std::uint64_t due,
                   bool force_benign = false);
  /// The device's next benign input: the next entry of its pool slice,
  /// or always its own entry when the workload re-attests one input.
  const pool_entry& next_benign(std::size_t dev);
  void on_frame(const dialed::byte_vec& frame);
  void on_challenge(device_state& d, const dialed::net::challenge_resp& m);
  void on_verdict(device_state& d, const dialed::net::attest_resp& m);
  void finish_round(device_state& d, bool ok, std::uint64_t now);
  void fail_round(device_state& d, std::uint64_t* counter);
  void flush(connection& c);
  void poll(std::uint64_t timeout_ns);
  void update_write_interest(connection& c);

  const workload& w_;
  span_log& spans_;
  std::vector<device_state> devs_;
  std::array<connection, 2> conns_;
  int epfd_ = -1;
  std::vector<std::uint8_t> rbuf_;
  dialed::byte_vec frame_;
  dialed::verifier::attestation_report scratch_;

  // Current phase.
  mode mode_ = mode::sat;
  std::uint64_t start_ns_ = 0, end_ns_ = 0, period_ns_ = 0;
  std::uint64_t window_ns_ = 1;
  std::size_t windows_closed_ = 0;
  std::uint64_t win_cpu_mark_ = 0;  ///< process minus generator CPU
  std::size_t inflight_ = 0;
  bool window_open_ = false;
  phase_stats* cur_ = nullptr;
  std::priority_queue<due_item, std::vector<due_item>, std::greater<>> due_;
  std::uint64_t next_round_id_ = 1;
  std::uint64_t stray_ = 0;
  std::size_t spans_recorded_rounds_ = 0;
};

}  // namespace fleetbench

#endif  // FLEETBENCH_LOADGEN_H

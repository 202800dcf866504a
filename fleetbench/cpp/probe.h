// The traced run's layer probe. After the load phases it takes a sample of
// benign rounds and, for each, times calls into every layer's public
// functions from outside the program:
//
//   net      one wire round with nothing else in flight
//   fleet    hub_like::challenge / hub_like::submit on the router
//   proto    decode_frame_into (borrow; v2.1 delta applied)
//   rot      compute_attestation_mac (verifier overload)
//   crypto   sha256::hash over the OR (the replay-memo key cost)
//   verifier replay_operation
//   emu      machine::recycle + load of the firmware image
//   store    on_challenge + on_retire + on_verdict + sync_barrier on a
//            scratch fleet_store
//   obs      the hub's own stage histograms around each submit
//
// Every call is recorded as a span under the sample's root span. The same
// pass is the verdict oracle's direct half: each submitted report's hub
// verdict must equal the verifier's own verdict field for field, and one
// report per attack kind must draw its expected rejection.
#ifndef FLEETBENCH_PROBE_H
#define FLEETBENCH_PROBE_H

#include <map>
#include <string>

#include "common.h"
#include "loadgen.h"
#include "service.h"

namespace fleetbench {

struct probe_result {
  /// Per-layer metric name -> value (see README.md for definitions).
  std::map<std::string, double> metrics;
  std::uint64_t oracle_checked = 0;
  std::uint64_t oracle_mismatches = 0;
  /// Rendered JSON: each hub stage's mean next to the outside timing of
  /// the same work, and whether they disagree by more than their spread.
  std::string agreement;
};

/// `batch_frames` is the sat phase's mean verify_batch size; `state_dir`
/// a fresh path for the scratch store.
probe_result run_probe(const workload& w, service& svc,
                       load_generator& gen, span_log& spans,
                       double batch_frames, std::size_t samples,
                       const std::string& state_dir);

}  // namespace fleetbench

#endif  // FLEETBENCH_PROBE_H

#include "fleet/hub_like.h"

#include <map>

namespace dialed::fleet {

std::vector<attest_result> hub_like::verify_batch(
    std::span<const byte_vec> frames) {
  std::vector<attest_result> out(frames.size());
  std::vector<hub_like*> owner(frames.size());
  std::map<hub_like*, std::size_t> share;  // frames per involved hub
  for (std::size_t i = 0; i < frames.size(); ++i) {
    owner[i] = &route(frames[i]);
    ++share[owner[i]];
  }
  for (auto& [hub, n] : share) hub->batch_begin();
  try {
    // Each index writes only its own slot: results land in input order.
    thread_pool::run(executor(), frames.size(), [&](std::size_t i) {
      out[i] = owner[i]->submit(frames[i]);
    });
  } catch (...) {
    for (auto& [hub, n] : share) hub->batch_end(n, /*completed=*/false);
    throw;
  }
  for (auto& [hub, n] : share) hub->batch_end(n, /*completed=*/true);
  return out;
}

}  // namespace dialed::fleet

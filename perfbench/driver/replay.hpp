// Per-layer replay of one SYRK request.
//
// The library has no internal timers, so the benchmark times its layers
// from outside: it re-issues the calls a request makes into each module's
// public functions — the plan's per-rank packed kernels (matrix) and its
// collectives at the same payload sizes (simmpi) — inside World::run on the
// world the request itself runs on, with a span around each call.
#pragma once

#include "core/session.hpp"
#include "matrix/matrix.hpp"
#include "simmpi/ledger.hpp"

namespace perfbench {

/// One replayed request, in seconds unless stated.
struct LayerSample {
  double dispatch_s = 0.0;    // one empty World::run on the plan's world
  double kernel_s = 0.0;      // busiest rank's kernel time
  double kernel_macs = 0.0;   // multiply-adds executed, summed over ranks
  double pack_bytes = 0.0;    // bytes written into pack buffers, all ranks
  double collective_s = 0.0;  // per phase: last exit − last entry, summed
  double imbalance_s = 0.0;   // per phase: last entry − first entry, summed
  /// Ledger traffic of the replay, per phase ("gather_A", "reduce_C").
  parsyrk::comm::CostSummary gather_a;
  parsyrk::comm::CostSummary reduce_c;
};

/// Replays `plan` on `session.world_for(plan)`. `exec_a` is the input at
/// the plan's execution size (padded when the plan pads n1). Supports the
/// blocking pairwise schedules (what a default request executes).
LayerSample replay_layers(parsyrk::core::Session& session,
                          const parsyrk::core::Plan& plan,
                          const parsyrk::Matrix& exec_a);

/// Exact equality of two summaries' per-rank maxima and totals.
bool same_traffic(const parsyrk::comm::CostSummary& a,
                  const parsyrk::comm::CostSummary& b);

/// Messages on the busiest rank (the larger of sent and received).
inline std::uint64_t critical_path_messages(
    const parsyrk::comm::CostSummary& s) {
  return s.max.msgs_sent > s.max.msgs_recv ? s.max.msgs_sent
                                           : s.max.msgs_recv;
}

}  // namespace perfbench

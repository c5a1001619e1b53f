#include "service/scheduler.hpp"

#include <algorithm>

namespace parsyrk::service {

std::vector<Placement> plan_stream_step(const std::vector<JobSpec>& queue,
                                        const std::vector<RankInterval>& free,
                                        double inflight_modeled_seconds,
                                        std::size_t inflight_jobs,
                                        const AdmissionLimits& limits) {
  const std::size_t max_jobs =
      std::max<std::size_t>(std::size_t{1}, limits.max_jobs_per_round);
  std::vector<Placement> placed;
  std::vector<RankInterval> holes = free;
  double budget_used = inflight_modeled_seconds;
  for (std::size_t j = 0; j < queue.size(); ++j) {
    const JobSpec& job = queue[j];
    // Solo jobs need a quiesced world; the caller drains the stream and
    // runs them alone. FIFO: nothing behind them dispatches either.
    if (job.solo) break;
    if (inflight_jobs + placed.size() >= max_jobs) break;
    // No-starvation rule: with an idle world the head always dispatches,
    // and when its cost alone exceeds the budget it does not consume
    // follower budget either.
    const bool head_exempt = inflight_jobs == 0 && placed.empty();
    if (!head_exempt && budget_used + job.modeled_seconds >
                            limits.modeled_seconds_per_round) {
      break;
    }
    // First-fit leftmost within the free intervals. A job that fits
    // nowhere right now ends the step — dispatching a later job over it
    // would break FIFO dispatch order.
    std::size_t hole = holes.size();
    for (std::size_t h = 0; h < holes.size(); ++h) {
      if (static_cast<std::uint64_t>(holes[h].extent) >= job.ranks) {
        hole = h;
        break;
      }
    }
    if (hole == holes.size()) break;
    placed.push_back({j, holes[hole].base});
    holes[hole].base += static_cast<int>(job.ranks);
    holes[hole].extent -= static_cast<int>(job.ranks);
    if (!(head_exempt &&
          job.modeled_seconds > limits.modeled_seconds_per_round)) {
      budget_used += job.modeled_seconds;
    }
  }
  return placed;
}

}  // namespace parsyrk::service

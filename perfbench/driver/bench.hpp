// Shared declarations of the benchmark driver.
//
// The driver measures; perfbench/run.py reduces. One run executes one
// workload for a fixed time budget and fills a Report with raw samples —
// per-request latencies, setup times, and (traced runs) per-layer spans —
// which main.cpp prints as one JSON object. Every statistic (median,
// quartiles, tail percentile, ratios) is computed by perfbench/stats.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "matrix/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Raw measurements of one run.
struct Report {
  /// Identity of the run (shape, plan, ranks, ...), printed verbatim.
  std::map<std::string, std::string> info;

  std::uint64_t attempted = 0;  // requests issued, setups included
  std::uint64_t failed = 0;     // requests that threw or returned a wrong C
  std::vector<std::string> errors;  // first few failure descriptions

  /// Seconds to build the Session/SyrkService and run its first request,
  /// once per round.
  std::vector<double> setup_s;
  /// Per-request latency in seconds — the syrk() call (closed loop), or due
  /// time to completion (open loop) — and the round each was measured in.
  /// Traced runs fill these from their untraced half.
  std::vector<double> latency_s;
  std::vector<double> latency_round;
  /// Throughput samples: a burst completed `requests` requests worth
  /// `macs` useful multiply-adds n1(n1+1)/2·n2 in `seconds` of wall time.
  struct Burst {
    double requests;
    double macs;
    double seconds;
  };
  std::vector<Burst> bursts;
  /// Critical-path ledger words per request (exact).
  double words_per_request = 0.0;
  double peak_rss_mb = 0.0;

  /// Traced runs: per-sample layer series. "position" holds each sample's
  /// shape (its index in the workload's menu); run.py takes the median per
  /// shape and the mean over shapes.
  std::map<std::string, std::vector<double>> series;
  /// Traced runs: service counters summed over the measured phases.
  std::map<std::string, double> scalars;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

/// Useful multiply-adds of one SYRK: the lower triangle of A·Aᵀ.
inline double useful_macs(const parsyrk::Matrix& a) {
  const double n1 = static_cast<double>(a.rows());
  return n1 * (n1 + 1.0) / 2.0 * static_cast<double>(a.cols());
}

/// Largest |c − oracle| over every entry; +inf on a shape mismatch.
double max_error(const parsyrk::Matrix& c, const parsyrk::Matrix& oracle);

/// Accepted error for an n2-column input with entries in [-1, 1): every
/// entry of C is a sum of n2 products of magnitude at most 1.
inline double tolerance(const parsyrk::Matrix& a) {
  return 1e-9 * static_cast<double>(a.cols() > 0 ? a.cols() : 1);
}

/// Human-readable plan, e.g. "2D c=2 procs=4 logical=6 padded_n1=0".
std::string describe(const parsyrk::core::Plan& plan);

void run_session_workload(const Options& opt, Report& report);
void run_service_workload(const Options& opt, Report& report);

}  // namespace perfbench

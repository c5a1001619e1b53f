// Service throughput snapshot: replays a mixed small/medium SYRK workload
// serialized (one core::syrk per request, back to back, on a plain session
// of the service's size) and through service::SyrkService (the streaming
// executor launches queued jobs onto disjoint free rank subsets), and
// reports requests/sec, p50/p99 latency (modeled and measured), and the
// plan cache's hit/miss counters against the number of enumerator runs.
// Emits the machine-readable snapshot committed as BENCH_SERVICE.json.
//
//   service_throughput [--out FILE] [--jobs N] [--procs P]
//       runs the workload and writes the JSON snapshot (stdout if no
//       --out).
//
//   service_throughput --smoke [--factor F] [--straggler-factor G]
//       cheap perf gate for ctest: asserts the service beats the
//       serialized loop by at least F (default 1.3) on the
//       dispatch-dominated workload, that the default service beats the
//       same service capped at one job in flight
//       (admission.max_jobs_per_round = 1) by at least G (default 1.15) on
//       the straggler mix below (best of 7 each, after 2 s of untimed
//       rounds of the mix on both sides), AND that every service job's result
//       matrix and ledger counters are bitwise-identical to the same
//       request run solo. Exits nonzero otherwise.
//
// The straggler mix is the scenario the streaming scheduler exists for:
// one large pipelined 3D job submitted ahead of many small 1D jobs. With
// one job in flight, every small waits for the 3D job even though 4 ranks
// sit idle the entire time. The default service keeps cycling smalls
// through the leftover ranks while the straggler runs (interleaving on
// nonblocking range handles), so its makespan approaches the straggler's
// own runtime.
//
// Why the service wins the mixed workload even on this simulated runtime:
// every core::syrk pays one condition-variable dispatch handoff to the
// session's parked worker threads, one job after another. The service
// launches jobs that fit side by side onto disjoint rank subsets, so their
// handoffs and executions overlap. The jobs themselves are tiny, so the
// handoff dominates — the same regime a real service is in when flooded
// with small requests.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/session.hpp"
#include "matrix/random.hpp"
#include "service/service.hpp"

namespace {

using namespace parsyrk;
using Clock = std::chrono::steady_clock;

struct Shape {
  std::uint64_t n1, n2, cap;
};

/// The replayed mixed workload: distinct shapes × rank caps chosen so the
/// planner (folding disabled) yields unfolded 1D plans at 2/3/4/6 ranks —
/// jobs that pack 2–6 to a 12-rank round.
std::vector<Shape> workload_shapes() {
  return {
      {16, 64, 2}, {24, 96, 3}, {32, 64, 4},
      {48, 96, 6}, {16, 96, 3}, {24, 64, 4},
  };
}

service::ServiceOptions service_options(int procs) {
  service::ServiceOptions opts;
  opts.procs = procs;
  // Folded plans run solo; keep the whole workload streamable.
  opts.plan_options.allow_folding = false;
  // Generous cost budget: let rank capacity, not modeled cost, limit what
  // runs side by side (the workload's jobs are communication-tiny).
  opts.admission.modeled_seconds_per_round = 10.0;
  opts.admission.max_jobs_per_round = 16;
  return opts;
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (std::memcmp(x.data() + i * x.ld(), y.data() + i * y.ld(),
                    x.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Builds request j of a replayed workload.
using MakeRequest = std::function<core::SyrkRequest(std::size_t)>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ModeResult {
  double seconds = std::numeric_limits<double>::infinity();
  std::vector<service::SyrkResult> results;
  service::ServiceStats stats;
};

/// Submits the whole workload asynchronously, waits for every ticket, and
/// returns wall time + per-request results.
ModeResult run_service(const service::ServiceOptions& opts, std::size_t n,
                       const MakeRequest& make) {
  service::SyrkService svc(opts);
  ModeResult out;
  const auto t0 = Clock::now();
  std::vector<service::SyrkTicket> tickets;
  tickets.reserve(n);
  for (std::size_t j = 0; j < n; ++j) tickets.push_back(svc.submit(make(j)));
  out.results.reserve(tickets.size());
  for (auto& t : tickets) out.results.push_back(t.wait());
  out.seconds = seconds_since(t0);
  out.stats = svc.stats();
  return out;
}

/// The serialized baseline: every request executed alone, one after
/// another, on a plain session with the same plan options. Service results
/// must match these runs bitwise.
struct SerialResult {
  double seconds = std::numeric_limits<double>::infinity();
  std::vector<core::SyrkRun> runs;
  /// Completion time of each request since the loop began (its latency had
  /// every request been submitted at once).
  std::vector<double> done_seconds;
};

SerialResult run_serialized(int procs, std::size_t n,
                            const MakeRequest& make) {
  core::Session session(procs);
  core::PlanSearchOptions plan_options;
  plan_options.allow_folding = false;
  session.set_plan_options(plan_options);
  SerialResult out;
  out.runs.reserve(n);
  out.done_seconds.reserve(n);
  const auto t0 = Clock::now();
  for (std::size_t j = 0; j < n; ++j) {
    out.runs.push_back(core::syrk(session, make(j)));
    out.done_seconds.push_back(seconds_since(t0));
  }
  out.seconds = seconds_since(t0);
  return out;
}

/// Keeps the faster of two timed runs (best-of-N: the workloads are
/// dispatch-dominated, so a single descheduling blip would otherwise
/// dominate a ratio).
template <class Result>
void keep_faster(Result& best, Result candidate) {
  if (candidate.seconds < best.seconds) best = std::move(candidate);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::vector<double> totals(const ModeResult& m) {
  std::vector<double> v;
  v.reserve(m.results.size());
  for (const auto& r : m.results) v.push_back(r.latency.total_seconds);
  return v;
}

/// Counts service-vs-solo mismatches (result bits or ledger counters).
int equivalence_failures(const ModeResult& service_run,
                         const std::vector<core::SyrkRun>& refs) {
  int failures = 0;
  for (std::size_t j = 0; j < service_run.results.size(); ++j) {
    const auto& run = service_run.results[j].run;
    const auto& ref = refs[j];
    const bool ok = bitwise_equal(run.c, ref.c) &&
                    run.total.total == ref.total.total &&
                    run.total.max == ref.total.max &&
                    run.gather_a.total == ref.gather_a.total &&
                    run.reduce_c.total == ref.reduce_c.total;
    if (!ok) {
      ++failures;
      std::cerr << "equivalence failure at request " << j << "\n";
    }
  }
  return failures;
}

/// Measures the enumeration cost a cache hit skips: wall time of a cold
/// enumerate_syrk_plans call vs a warm PlanCache::resolve of the same key.
struct CacheTiming {
  double enumerate_us = 0.0;
  double hit_us = 0.0;
};

CacheTiming measure_cache_timing(const Shape& s) {
  core::PlanSearchOptions opts;
  opts.allow_folding = false;
  CacheTiming out;
  const int reps = 1000;
  {
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      core::enumerate_syrk_plans(s.n1, s.n2, s.cap, opts);
    }
    out.enumerate_us =
        std::chrono::duration<double>(Clock::now() - t0).count() * 1e6 / reps;
  }
  {
    service::PlanCache cache;
    cache.resolve(s.n1, s.n2, s.cap, opts);  // prime: the one miss
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) cache.resolve(s.n1, s.n2, s.cap, opts);
    out.hit_us =
        std::chrono::duration<double>(Clock::now() - t0).count() * 1e6 / reps;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Straggler mix: one large 3D job + many small 1D jobs
// ---------------------------------------------------------------------------

/// Wall time of untimed straggler-mix rounds before the timed ones. After
/// 16 s of idle on a 4-vCPU box, 1 s of rounds left the ratio at
/// 1.03–1.08x in 3 runs of 3, and 2 s brought it to 1.30–1.52x in 3 of 3.
constexpr double kMixWarmSeconds = 2.0;

struct StragglerMix {
  int procs = 16;       // 3D straggler on 12 ranks leaves a 4-rank side lane
  int smalls = 24;      // small 1D jobs riding behind the straggler
  std::uint64_t big_n1 = 96, big_n2 = 64;    // use_3d(2, 2): 12 ranks
  std::uint64_t small_n1 = 16, small_n2 = 32;  // 1D at 2 ranks
};

std::vector<Matrix> straggler_inputs(const StragglerMix& mix) {
  std::vector<Matrix> inputs;
  inputs.reserve(static_cast<std::size_t>(mix.smalls) + 1);
  inputs.push_back(random_matrix(mix.big_n1, mix.big_n2, 7100));
  for (int j = 0; j < mix.smalls; ++j) {
    inputs.push_back(random_matrix(mix.small_n1, mix.small_n2,
                                   7200 + static_cast<std::uint64_t>(j)));
  }
  return inputs;
}

core::SyrkRequest straggler_request(const StragglerMix& mix,
                                    const std::vector<Matrix>& inputs,
                                    std::size_t j) {
  if (j == 0) {
    // The straggler: pipelined 3D, its all-gather phase chunked through
    // the segmented nonblocking path.
    return core::SyrkRequest(inputs[0]).use_3d(2, 2).with_pipeline(4);
  }
  return core::SyrkRequest(inputs[j]).use_1d(2);
}

int run_bench(int jobs, int procs, const std::string& out_path, bool smoke,
              double factor, double straggler_factor) {
  const auto shapes = workload_shapes();
  std::vector<Matrix> inputs;
  inputs.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    const Shape& s = shapes[static_cast<std::size_t>(j) % shapes.size()];
    inputs.push_back(
        random_matrix(s.n1, s.n2, 900 + static_cast<std::uint64_t>(j)));
  }

  const MakeRequest mixed = [&](std::size_t j) {
    return core::SyrkRequest(inputs[j]).on_procs(
        shapes[j % shapes.size()].cap);
  };
  const auto n = static_cast<std::size_t>(jobs);

  // Warm the shared pool once so neither side pays thread creation.
  run_serialized(procs, n, mixed);

  // Best-of-3 each, alternating so drift hits both sides alike.
  SerialResult serialized;
  ModeResult batched;
  for (int rep = 0; rep < 3; ++rep) {
    keep_faster(serialized, run_serialized(procs, n, mixed));
    keep_faster(batched, run_service(service_options(procs), n, mixed));
  }
  const int eq_failures = equivalence_failures(batched, serialized.runs);

  // Straggler mix: one job in flight vs the default service, best-of-7
  // each (a run takes ~2 ms, and its ratio swings more than the mixed
  // workload's: the win is idle cores, which any other load takes away).
  const StragglerMix mix;
  const auto mix_inputs = straggler_inputs(mix);
  const MakeRequest straggler = [&](std::size_t j) {
    return straggler_request(mix, mix_inputs, j);
  };
  const std::size_t mix_n = mix_inputs.size();
  service::ServiceOptions one_in_flight = service_options(mix.procs);
  one_in_flight.admission.max_jobs_per_round = 1;
  // Untimed rounds of the same mix on both sides first. Streaming wins only
  // while the small jobs run on every core at once, and on a box that has
  // just been idle the cores take far longer than a ~2 ms run to come back
  // to full speed: without these rounds every timed run falls in that ramp
  // and the ratio reads ~1.05x.
  const auto warm_start = Clock::now();
  while (seconds_since(warm_start) < kMixWarmSeconds) {
    run_service(one_in_flight, mix_n, straggler);
    run_service(service_options(mix.procs), mix_n, straggler);
  }
  ModeResult mix_one_in_flight, mix_stream;
  for (int rep = 0; rep < 7; ++rep) {
    keep_faster(mix_one_in_flight,
                run_service(one_in_flight, mix_n, straggler));
    keep_faster(mix_stream,
                run_service(service_options(mix.procs), mix_n, straggler));
  }
  const double mix_speedup =
      mix_one_in_flight.seconds / mix_stream.seconds;
  const auto mix_refs = run_serialized(mix.procs, mix_n, straggler).runs;
  const int mix_eq_failures =
      equivalence_failures(mix_stream, mix_refs) +
      equivalence_failures(mix_one_in_flight, mix_refs);

  const double rps_serial = static_cast<double>(jobs) / serialized.seconds;
  const double rps_batched = static_cast<double>(jobs) / batched.seconds;
  const double speedup = serialized.seconds / batched.seconds;
  // Timed on the workload's largest rank cap — the widest candidate
  // lattice, i.e. the most representative enumeration cost a hit skips.
  const auto cache_timing = measure_cache_timing(shapes[3]);

  std::vector<double> modeled;
  modeled.reserve(batched.results.size());
  for (const auto& r : batched.results) {
    modeled.push_back(r.latency.modeled_seconds);
  }

  std::cout << "service throughput (" << jobs << " requests, " << procs
            << "-rank service):\n"
            << "  serialized: " << serialized.seconds * 1e3 << " ms ("
            << rps_serial << " req/s, one core::syrk per request)\n"
            << "  service:    " << batched.seconds * 1e3 << " ms ("
            << rps_batched << " req/s, " << batched.stats.interleaved_jobs
            << " interleaved jobs)\n"
            << "  speedup:    " << speedup << "x\n"
            << "  plan cache: " << batched.stats.plan_cache.hits << " hits, "
            << batched.stats.plan_cache.misses
            << " misses (enumerator runs) for " << shapes.size()
            << " distinct shapes\n"
            << "  cache-hit resolve " << cache_timing.hit_us
            << " us vs enumeration " << cache_timing.enumerate_us << " us\n"
            << "  service-vs-solo equivalence failures: " << eq_failures
            << "\n"
            << "straggler mix (1 pipelined 3D straggler + " << mix.smalls
            << " small 1D jobs, " << mix.procs << "-rank service):\n"
            << "  one job in flight: " << mix_one_in_flight.seconds * 1e3
            << " ms\n"
            << "  streaming:         " << mix_stream.seconds * 1e3 << " ms ("
            << mix_stream.stats.interleaved_jobs << " interleaved jobs, gap "
            << mix_stream.stats.scheduler_gap_seconds * 1e3 << " rank-ms)\n"
            << "  speedup:           " << mix_speedup << "x\n"
            << "  streamed-vs-solo equivalence failures: " << mix_eq_failures
            << "\n";

  bool ok = eq_failures == 0 && mix_eq_failures == 0;
  // The cache must have enumerated once per distinct shape, no more.
  if (batched.stats.plan_cache.misses != shapes.size()) {
    std::cerr << "FAIL: expected " << shapes.size()
              << " enumerator runs (one per distinct shape), measured "
              << batched.stats.plan_cache.misses << "\n";
    ok = false;
  }
  if (cache_timing.hit_us >= cache_timing.enumerate_us) {
    std::cerr << "FAIL: cache hit (" << cache_timing.hit_us
              << " us) not cheaper than enumeration ("
              << cache_timing.enumerate_us << " us)\n";
    ok = false;
  }
  if (smoke) {
    if (speedup < factor) {
      std::cerr << "FAIL: service speedup over the serialized loop "
                << speedup << "x < " << factor << "x\n";
      ok = false;
    }
    if (mix_speedup < straggler_factor) {
      std::cerr << "FAIL: straggler-mix speedup over one job in flight "
                << mix_speedup << "x < " << straggler_factor << "x\n";
      ok = false;
    }
    std::cout << (ok ? "OK\n" : "") << std::flush;
    return ok ? 0 : 1;
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"workload\": {\"requests\": " << jobs
     << ", \"distinct_shapes\": " << shapes.size()
     << ", \"service_ranks\": " << procs << "},\n";
  os << "  \"serialized\": {\"seconds\": " << serialized.seconds
     << ", \"requests_per_sec\": " << rps_serial << "},\n";
  os << "  \"batched\": {\"seconds\": " << batched.seconds
     << ", \"requests_per_sec\": " << rps_batched
     << ", \"interleaved_jobs\": " << batched.stats.interleaved_jobs
     << ", \"batched_jobs\": " << batched.stats.batched_jobs << "},\n";
  os << "  \"speedup\": " << speedup << ",\n";
  os << "  \"latency_seconds\": {\"modeled_p50\": "
     << percentile(modeled, 0.50)
     << ", \"modeled_p99\": " << percentile(modeled, 0.99)
     << ", \"serialized_total_p50\": "
     << percentile(serialized.done_seconds, 0.50)
     << ", \"serialized_total_p99\": "
     << percentile(serialized.done_seconds, 0.99)
     << ", \"batched_total_p50\": " << percentile(totals(batched), 0.50)
     << ", \"batched_total_p99\": " << percentile(totals(batched), 0.99)
     << "},\n";
  os << "  \"plan_cache\": {\"hits\": " << batched.stats.plan_cache.hits
     << ", \"misses\": " << batched.stats.plan_cache.misses
     << ", \"hit_resolve_us\": " << cache_timing.hit_us
     << ", \"enumerate_us\": " << cache_timing.enumerate_us << "},\n";
  os << "  \"batched_vs_solo_equivalence_failures\": " << eq_failures
     << ",\n";
  os << "  \"straggler_mix\": {\"smalls\": " << mix.smalls
     << ", \"service_ranks\": " << mix.procs
     << ", \"one_in_flight_seconds\": " << mix_one_in_flight.seconds
     << ", \"streaming_seconds\": " << mix_stream.seconds
     << ", \"streaming_dispatches\": " << mix_stream.stats.rounds
     << ", \"interleaved_jobs\": " << mix_stream.stats.interleaved_jobs
     << ", \"scheduler_gap_seconds\": "
     << mix_stream.stats.scheduler_gap_seconds
     << ", \"speedup\": " << mix_speedup
     << ", \"streamed_vs_solo_equivalence_failures\": " << mix_eq_failures
     << "}\n";
  os << "}\n";

  if (out_path.empty()) {
    std::cout << os.str();
  } else {
    std::ofstream f(out_path);
    f << os.str();
    if (!f) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  int jobs = 48;
  int procs = 12;
  bool smoke = false;
  double factor = 1.3;
  double straggler_factor = 1.15;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (arg == "--procs" && i + 1 < argc) {
      procs = std::atoi(argv[++i]);
    } else if (arg == "--factor" && i + 1 < argc) {
      factor = std::strtod(argv[++i], nullptr);
    } else if (arg == "--straggler-factor" && i + 1 < argc) {
      straggler_factor = std::strtod(argv[++i], nullptr);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: service_throughput [--out FILE] [--jobs N] "
                   "[--procs P] [--smoke [--factor F] "
                   "[--straggler-factor G]]\n";
      return 2;
    }
  }
  return run_bench(jobs, procs, out, smoke, factor, straggler_factor);
}

// Executor throughput: jobs/sec for small SYRKs, fresh-world-per-job
// (the pre-pool execution model: P threads created and joined per call)
// versus a warm Session reusing parked pool workers. Small problems are
// dominated by dispatch overhead, which is exactly what the persistent
// executor removes. Emits one JSON line for machine consumption.
//
//   $ ./bench/executor_throughput [n1] [n2] [procs] [jobs]
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/session.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "matrix/ukernel.hpp"
#include "simmpi/worker_pool.hpp"
#include "support/table.hpp"

using namespace parsyrk;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n1 = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64;
  const std::size_t n2 = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 64;
  const int procs = argc > 3 ? std::atoi(argv[3]) : 12;
  const int jobs = argc > 4 ? std::atoi(argv[4]) : 200;

  Matrix a = random_matrix(n1, n2, /*seed=*/5);
  Matrix ref;
  {
    core::Session ref_session(procs);
    ref = core::syrk(ref_session, core::SyrkRequest(a)).c;
  }

  std::cout << "Executor throughput: " << jobs << " jobs of " << n1 << "x"
            << n2 << " 1D SYRK at P = " << procs << "\n\n";

  // Dispatch-only baseline: empty SPMD bodies isolate the executor cost
  // (thread creation + join versus a condition-variable handoff to parked
  // workers) from the SYRK compute and traffic every job pays either way.
  const auto t_fresh_empty = Clock::now();
  for (int j = 0; j < jobs; ++j) {
    comm::WorkerPool fresh_pool;
    comm::World world(procs, fresh_pool);
    world.run([](comm::Comm&) {});
  }
  const double fresh_empty_sec = seconds_since(t_fresh_empty);
  double warm_empty_sec = 0.0;
  {
    comm::WorkerPool warm_pool;
    comm::World world(procs, warm_pool);
    world.run([](comm::Comm&) {});  // warmup
    const auto t_warm_empty = Clock::now();
    for (int j = 0; j < jobs; ++j) world.run([](comm::Comm&) {});
    warm_empty_sec = seconds_since(t_warm_empty);
  }
  const double dispatch_speedup = fresh_empty_sec / warm_empty_sec;
  std::cout << "dispatch only (empty job): fresh "
            << fmt_double(1e6 * fresh_empty_sec / jobs, 4) << " us/job, warm "
            << fmt_double(1e6 * warm_empty_sec / jobs, 4) << " us/job ("
            << fmt_double(dispatch_speedup, 3) << "x)\n\n";

  // Fresh world per job: a private, discarded pool per job forces the old
  // execution model — every job pays P thread creations and joins.
  double fresh_err = 0.0;
  std::uint64_t fresh_threads = 0;
  const auto t_fresh = Clock::now();
  for (int j = 0; j < jobs; ++j) {
    comm::WorkerPool pool;
    core::Session throwaway(procs, pool);
    const auto run = core::syrk(throwaway, core::SyrkRequest(a).use_1d());
    fresh_err = std::max(fresh_err, max_abs_diff(run.c.view(), ref.view()));
    fresh_threads += pool.threads_created();
  }
  const double fresh_sec = seconds_since(t_fresh);

  // Warm session: one lease, every job dispatches to parked workers.
  double warm_err = 0.0;
  comm::WorkerPool pool;
  core::Session session(procs, pool);
  const std::uint64_t warm_threads = pool.threads_created();
  const auto t_warm = Clock::now();
  for (int j = 0; j < jobs; ++j) {
    const auto run = core::syrk(session, core::SyrkRequest(a).use_1d());
    warm_err = std::max(warm_err, max_abs_diff(run.c.view(), ref.view()));
  }
  const double warm_sec = seconds_since(t_warm);

  // Warm session with per-message tracing: same jobs, each draining its
  // JobTrace. Overhead should stay under a few percent (one branch plus a
  // relaxed ring push per message); it is exactly zero when tracing is off,
  // which the warm run above demonstrates (same binary, sink pointer null).
  double traced_err = 0.0;
  std::uint64_t traced_events = 0;
  session.enable_tracing();
  const auto t_traced = Clock::now();
  for (int j = 0; j < jobs; ++j) {
    const auto run =
        core::syrk(session, core::SyrkRequest(a).use_1d().with_trace());
    traced_err = std::max(traced_err, max_abs_diff(run.c.view(), ref.view()));
    traced_events += run.trace ? run.trace->events.size() : 0;
  }
  const double traced_sec = seconds_since(t_traced);

  // Warm session with SPMD protocol verification: same jobs again under
  // the full dynamic verifier (collective matching, watchdog registration,
  // leak and ledger checks at job end). The hot-path cost is one null-check
  // plus the inline topology test per message; docs/VERIFY.md records the
  // <= 10% budget this measures.
  double verified_err = 0.0;
  session.world().disable_tracing();  // isolate verify cost from trace cost
  const auto t_verified = Clock::now();
  for (int j = 0; j < jobs; ++j) {
    const auto run =
        core::syrk(session, core::SyrkRequest(a).use_1d().with_verify());
    verified_err =
        std::max(verified_err, max_abs_diff(run.c.view(), ref.view()));
  }
  const double verified_sec = seconds_since(t_verified);

  // Local-kernel time: the gamma the planner's cost model should use on this
  // host (docs/PLANNING.md records the calibration).
  const double gamma_packed = bench::measured_gamma_syrk(
      [](const ConstMatrixView& av, const MatrixView& cv) {
        syrk_lower(av, cv);
      });
  std::cout << "local kernel gamma (s/MAC, 512x128 syrk_lower): packed "
            << gamma_packed << " (" << kern::active_ukernel().name
            << " ukernel)\n\n";

  const double fresh_jps = jobs / fresh_sec;
  const double warm_jps = jobs / warm_sec;
  const double traced_jps = jobs / traced_sec;
  const double verified_jps = jobs / verified_sec;
  const double speedup = warm_jps / fresh_jps;
  const double trace_overhead_pct = 100.0 * (traced_sec / warm_sec - 1.0);
  const double verify_overhead_pct = 100.0 * (verified_sec / warm_sec - 1.0);

  Table t({"executor", "jobs/sec", "threads created", "max err"});
  t.add_row({"fresh world per job", fmt_double(fresh_jps, 6),
             std::to_string(fresh_threads), fmt_double(fresh_err, 3)});
  t.add_row({"warm session", fmt_double(warm_jps, 6),
             std::to_string(warm_threads), fmt_double(warm_err, 3)});
  t.add_row({"warm session, traced", fmt_double(traced_jps, 6),
             std::to_string(warm_threads), fmt_double(traced_err, 3)});
  t.add_row({"warm session, verified", fmt_double(verified_jps, 6),
             std::to_string(warm_threads), fmt_double(verified_err, 3)});
  t.print(std::cout);
  std::cout << "\nspeedup (warm/fresh): " << fmt_double(speedup, 4) << "x\n";
  std::cout << "trace overhead (traced vs warm): "
            << fmt_double(trace_overhead_pct, 3) << "% over " << traced_events
            << " events\n";
  std::cout << "verify overhead (verified vs warm): "
            << fmt_double(verify_overhead_pct, 3) << "%\n";

  // Machine-readable summary (one line).
  std::cout << "\n{\"bench\":\"executor_throughput\",\"n1\":" << n1
            << ",\"n2\":" << n2 << ",\"procs\":" << procs << ",\"jobs\":"
            << jobs << ",\"fresh_jobs_per_sec\":" << fresh_jps
            << ",\"warm_jobs_per_sec\":" << warm_jps << ",\"speedup\":"
            << speedup << ",\"dispatch_speedup\":" << dispatch_speedup
            << ",\"warm_threads_created\":" << warm_threads
            << ",\"traced_jobs_per_sec\":" << traced_jps
            << ",\"trace_overhead_pct\":" << trace_overhead_pct
            << ",\"traced_events\":" << traced_events
            << ",\"verified_jobs_per_sec\":" << verified_jps
            << ",\"verify_overhead_pct\":" << verify_overhead_pct
            << ",\"gamma_packed\":" << gamma_packed
            << ",\"ukernel\":\"" << kern::active_ukernel().name << "\"}\n";

  return (fresh_err < 1e-9 && warm_err < 1e-9 && traced_err < 1e-9 &&
          verified_err < 1e-9)
             ? EXIT_SUCCESS
             : EXIT_FAILURE;
}

// parsyrk — command-line driver for the library.
//
// Runs any of the parallel kernels on a synthetic matrix, prints the plan,
// the measured per-phase communication, the matching lower bound, and
// verifies the result against the serial reference.
//
//   parsyrk --op syrk  --n1 144 --n2 96 --procs 12
//   parsyrk --op syrk  --n1 360 --n2 8  --procs 30 --algo 2d --c 5
//   parsyrk --op syr2k --n1 100 --n2 12 --procs 30 --algo 2d --c 5
//   parsyrk --op symm  --n1 100 --n2 12 --procs 30 --c 5
//   parsyrk --op bound --n1 1000 --n2 1000 --procs 4096
//   parsyrk --op syrk  --n1 128 --n2 2048 --procs 24 --audit
//   parsyrk --op syrk  --n1 144 --n2 96 --procs 12 --trace-out run.json
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "bounds/syr2k_bounds.hpp"
#include "core/cholesky.hpp"
#include "core/memory.hpp"
#include "core/session.hpp"
#include "core/symm.hpp"
#include "core/syr2k.hpp"
#include "matrix/factor.hpp"
#include "matrix/io.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "service/service.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/audit.hpp"
#include "trace/export.hpp"

using namespace parsyrk;

namespace {

int run_bound(std::uint64_t n1, std::uint64_t n2, std::uint64_t p) {
  const auto b = bounds::syrk_lower_bound(n1, n2, p);
  const auto b2 = bounds::syr2k_lower_bound(n1, n2, p);
  Table t({"kernel", "case", "W (data)", "communicated bound"});
  t.add_row({"SYRK", bounds::regime_name(b.regime), fmt_double(b.w, 8),
             fmt_double(b.communicated, 8)});
  t.add_row({"SYR2K", bounds::regime_name(b2.regime), fmt_double(b2.w, 8),
             fmt_double(b2.communicated, 8)});
  t.print(std::cout);
  return EXIT_SUCCESS;
}

void report(comm::World& world, double err, double bound_comm) {
  const auto total = world.ledger().summary();
  Table t({"phase", "max words/rank", "max msgs/rank"});
  for (const auto& phase : world.ledger().phases()) {
    const auto s = world.ledger().summary(phase);
    t.add_row({phase, std::to_string(s.max.words_sent),
               std::to_string(s.max.msgs_sent)});
  }
  t.add_row({"total", std::to_string(total.max.words_sent),
             std::to_string(total.max.msgs_sent)});
  t.print(std::cout);
  std::cout << "max |result - reference| = " << err << "\n";
  if (bound_comm > 0) {
    std::cout << "lower bound = " << fmt_double(bound_comm, 6)
              << " words; measured/bound = "
              << fmt_double(
                     static_cast<double>(total.critical_path_words()) /
                         bound_comm,
                     4)
              << "\n";
  }
}

/// Per-phase report for a unified-API run: request-scoped summaries.
int report_run(const core::SyrkRun& run, double err) {
  Table t({"phase", "max words/rank", "max msgs/rank"});
  const std::pair<const char*, const comm::CostSummary*> phases[] = {
      {"scatter_A", &run.scatter_a},
      {"gather_A", &run.gather_a},
      {"reduce_C", &run.reduce_c},
  };
  for (const auto& [name, s] : phases) {
    if (s->max.words_sent == 0 && s->max.msgs_sent == 0) continue;
    t.add_row({name, std::to_string(s->max.words_sent),
               std::to_string(s->max.msgs_sent)});
  }
  t.add_row({"total", std::to_string(run.total.max.words_sent),
             std::to_string(run.total.max.msgs_sent)});
  t.print(std::cout);
  std::cout << "max |result - reference| = " << err << "\n";
  if (run.bound.communicated > 0) {
    std::cout << "lower bound = " << fmt_double(run.bound.communicated, 6)
              << " words; measured/bound = "
              << fmt_double(
                     static_cast<double>(run.total.critical_path_words()) /
                         run.bound.communicated,
                     4)
              << "\n";
  }
  return err < 1e-8 ? EXIT_SUCCESS : EXIT_FAILURE;
}

/// --audit / --trace-out handling for a finished (traced) SYRK run.
/// Returns EXIT_FAILURE when the audit flags a violation.
int report_trace(const core::SyrkRun& run, std::uint64_t n1, std::uint64_t n2,
                 bool audit, const std::string& trace_out) {
  int rc = EXIT_SUCCESS;
  if (audit) {
    trace::BoundAuditor auditor;
    const auto rep = auditor.audit(
        n1, n2, run, run.trace ? &run.trace.value() : nullptr);
    trace::print_audit(std::cout, rep);
    if (!rep.ok()) rc = EXIT_FAILURE;
  }
  if (!trace_out.empty()) {
    PARSYRK_REQUIRE(run.trace.has_value(),
                    "--trace-out needs a traced run (internal error)");
    std::ofstream out(trace_out);
    PARSYRK_REQUIRE(out.good(), "cannot open ", trace_out, " for writing");
    trace::write_chrome_json(out, *run.trace);
    std::cout << "trace (" << run.trace->events.size() << " events) -> "
              << trace_out << "\n";
  }
  return rc;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// --serve: replay a deterministic mixed small/medium/large workload
/// through service::SyrkService (async submit, streamed dispatch, plan
/// cache) and print throughput, latency percentiles, and scheduler/cache
/// stats.
int run_serve(int procs, int jobs, std::uint64_t seed, bool audit) {
  struct ShapeSpec {
    std::uint64_t n1, n2, cap;
  };
  // Small jobs at caps that run several side by side, plus a full-size job
  // every few requests that needs the whole world.
  const std::vector<ShapeSpec> mix = {
      {16, 64, 2},
      {24, 96, 3},
      {32, 64, 4},
      {48, 96, 6},
      {64, 128, static_cast<std::uint64_t>(procs)},
  };
  service::ServiceOptions opts;
  opts.procs = procs;
  service::SyrkService svc(opts);

  // The service references request matrices; reserve so growth never moves
  // one under an in-flight ticket.
  std::vector<Matrix> inputs;
  inputs.reserve(static_cast<std::size_t>(jobs));
  std::vector<service::SyrkTicket> tickets;
  tickets.reserve(static_cast<std::size_t>(jobs));
  const auto t0 = std::chrono::steady_clock::now();
  for (int j = 0; j < jobs; ++j) {
    const ShapeSpec& s = mix[static_cast<std::size_t>(j) % mix.size()];
    inputs.push_back(
        random_matrix(s.n1, s.n2, seed + static_cast<std::uint64_t>(j)));
    core::SyrkRequest req(inputs.back());
    req.on_procs(s.cap);
    if (audit) req.with_audit();
    tickets.push_back(svc.submit(std::move(req)));
  }

  double max_err = 0.0;
  int audit_violations = 0;
  std::vector<std::uint64_t> seqs;
  std::vector<double> queue_s, total_s;
  std::uint64_t batched = 0;
  for (std::size_t j = 0; j < tickets.size(); ++j) {
    const service::SyrkResult& r = tickets[j].wait();
    max_err = std::max(max_err, max_abs_diff(
        r.run.c.view(), syrk_reference(inputs[j].view()).view()));
    if (r.audit && !r.audit->ok()) ++audit_violations;
    seqs.push_back(r.completion_seq);
    queue_s.push_back(r.latency.queue_seconds);
    total_s.push_back(r.latency.total_seconds);
    if (r.batched) ++batched;
  }
  // A small follower may legitimately finish before a long-running
  // straggler, so only the completion sequence numbers must be distinct.
  std::sort(seqs.begin(), seqs.end());
  const bool seqs_distinct =
      std::adjacent_find(seqs.begin(), seqs.end()) == seqs.end();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto st = svc.stats();
  Table t({"metric", "value"});
  t.add_row({"requests", std::to_string(st.completed)});
  t.add_row({"throughput (req/s)",
             fmt_double(static_cast<double>(jobs) / wall, 6)});
  t.add_row({"dispatches", std::to_string(st.rounds)});
  t.add_row({"interleaved jobs", std::to_string(st.interleaved_jobs)});
  t.add_row({"jobs batched / solo", std::to_string(st.batched_jobs) + " / " +
                                        std::to_string(st.solo_jobs)});
  t.add_row({"plan cache hits / misses",
             std::to_string(st.plan_cache.hits) + " / " +
                 std::to_string(st.plan_cache.misses)});
  t.add_row({"queue p50 / p99 (us)",
             fmt_double(1e6 * percentile(queue_s, 0.5), 5) + " / " +
                 fmt_double(1e6 * percentile(queue_s, 0.99), 5)});
  t.add_row({"total p50 / p99 (us)",
             fmt_double(1e6 * percentile(total_s, 0.5), 5) + " / " +
                 fmt_double(1e6 * percentile(total_s, 0.99), 5)});
  t.add_row({"scheduler gap (rank-us)",
             fmt_double(1e6 * st.scheduler_gap_seconds, 5)});
  t.add_row({"completion sequence numbers",
             seqs_distinct ? "distinct" : "CORRUPT (repeated)"});
  if (audit) {
    t.add_row({"Theorem-1 audit violations",
               std::to_string(audit_violations)});
  }
  t.print(std::cout);
  std::cout << "max |C - AAᵀ| over all requests = " << max_err << "\n";
  const bool ok =
      max_err < 1e-8 && seqs_distinct && audit_violations == 0 && batched > 0;
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("op", "kernel to run: syrk | syr2k | symm | cholesky | bound",
               "syrk");
  cli.add_flag("n1", "rows of A (order of C); for symm: order of S", "144");
  cli.add_flag("n2", "cols of A; for symm: cols of B", "96");
  cli.add_flag("procs", "processor budget", "12");
  cli.add_flag("algo", "force algorithm: auto | 1d | 2d | 3d", "auto");
  cli.add_flag("c", "triangle-distribution prime (2d/3d)", "0");
  cli.add_flag("p2", "slice count for 3d", "1");
  cli.add_flag("memory", "per-rank memory budget in words (0 = unlimited)",
               "0");
  cli.add_flag("chunks", "pipelined-collective segment count for syrk "
               "(0 = blocking; clamped to the plan's available segments)",
               "0");
  cli.add_flag("ranks-per-node", "two-level topology: consecutive ranks per "
               "node (1 = flat machine; syrk only)", "1");
  cli.add_flag("strategy", "collective realization for syrk: auto (planner "
               "picks per topology) | pairwise | hierarchical", "auto");
  cli.add_flag("seed", "RNG seed for the synthetic input", "1");
  cli.add_flag("input", "read A from a MatrixMarket file instead of "
               "synthesizing it (overrides --n1/--n2)", std::nullopt);
  cli.add_flag("explain-plan", "print the planner's full candidate ranking "
               "(chosen and rejected plans with modeled costs; syrk only)");
  cli.add_flag("audit", "audit the measured words against the Theorem 1 "
               "bound and the algorithm's modeled cost (syrk only)");
  cli.add_flag("trace-out", "write the run's per-message trace as Chrome "
               "tracing JSON to this file (syrk only)", std::nullopt);
  cli.add_flag("serve", "replay a mixed synthetic SYRK workload through the "
               "async streaming service and print throughput, latency, and "
               "plan-cache stats");
  cli.add_flag("jobs", "request count for --serve", "60");
  cli.add_flag("help", "print this help");
  try {
    cli.parse(argc, argv);
    if (cli.has("help") && cli.get("help") == "true") {
      std::cout << cli.help("parsyrk",
                            "communication-optimal parallel SYRK & friends");
      return EXIT_SUCCESS;
    }
    // Range-checked reads: garbage ("banana") and overflow both surface as
    // a flag-named InvalidArgument caught below, never a silent truncation.
    auto n1 = static_cast<std::uint64_t>(
        cli.get_int_in("n1", 1, std::int64_t{1} << 32));
    auto n2 = static_cast<std::uint64_t>(
        cli.get_int_in("n2", 1, std::int64_t{1} << 32));
    const auto procs =
        static_cast<std::uint64_t>(cli.get_int_in("procs", 1, 1 << 24));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const std::string op = cli.get("op");
    const int chunks = static_cast<int>(cli.get_int_in("chunks", 0, 1 << 24));
    const int ranks_per_node =
        static_cast<int>(cli.get_int_in("ranks-per-node", 1, 1 << 24));
    const std::string strategy = cli.get("strategy");
    PARSYRK_REQUIRE(strategy == "auto" || strategy == "pairwise" ||
                        strategy == "hierarchical",
                    "unknown --strategy ", strategy,
                    " (want auto | pairwise | hierarchical)");
    PARSYRK_REQUIRE(chunks == 0 || strategy != "hierarchical",
                    "--chunks requires pairwise collectives; drop "
                    "--strategy hierarchical");
    auto apply_exec_options = [&](core::SyrkRequest& req) {
      if (chunks >= 1) req.with_pipeline(chunks);
      if (ranks_per_node > 1) req.with_topology(ranks_per_node);
      if (strategy == "hierarchical") {
        req.with_reduce(core::ReduceKind::kHierarchical)
            .with_exchange(core::ExchangeKind::kHierarchical);
      }
      // "pairwise" is the default kinds; "auto" leaves the planner's
      // strategy pick (mapped inside core::syrk) in charge.
    };

    Matrix a;
    if (cli.has("input")) {
      a = read_matrix_market_file(cli.get("input"));
      n1 = a.rows();
      n2 = a.cols();
      std::cout << "Loaded " << n1 << "x" << n2 << " matrix from "
                << cli.get("input") << "\n";
    }

    if (op == "bound") return run_bound(n1, n2, procs);
    if (cli.has("serve") && cli.get("serve") == "true") {
      return run_serve(static_cast<int>(procs),
                       static_cast<int>(cli.get_int("jobs")), seed,
                       cli.has("audit") && cli.get("audit") == "true");
    }

    const auto memory = static_cast<std::uint64_t>(cli.get_int("memory"));
    std::string algo = cli.get("algo");
    auto c_flag = static_cast<std::uint64_t>(cli.get_int("c"));
    auto p2_flag = static_cast<std::uint64_t>(cli.get_int("p2"));

    if (a.empty()) a = random_matrix(n1, n2, seed);

    const bool audit = cli.has("audit") && cli.get("audit") == "true";
    const bool explain =
        cli.has("explain-plan") && cli.get("explain-plan") == "true";
    const std::string trace_out =
        cli.has("trace-out") ? cli.get("trace-out") : std::string();
    const bool tracing = audit || !trace_out.empty();

    if (op == "syrk" && algo == "auto" && memory == 0) {
      core::Session session(static_cast<int>(procs));
      core::SyrkRequest req(a);
      if (audit) req.with_audit();
      else if (tracing) req.with_trace();
      apply_exec_options(req);
      if (explain) core::resolve_plan_report(session, req).explain(std::cout);
      const auto run = core::syrk(session, req);
      std::cout << "Plan: " << run.plan << "\n";
      if (run.nodes >= 2) {
        std::cout << "Topology: " << run.nodes << " nodes x "
                  << ranks_per_node << " ranks; busiest node sent "
                  << run.total_inter.max.words_sent
                  << " inter-node words\n";
      }
      const double err =
          max_abs_diff(run.c.view(), syrk_reference(a.view()).view());
      Table t({"phase", "max words/rank"});
      t.add_row({"gather_A", std::to_string(run.gather_a.max.words_sent)});
      t.add_row({"reduce_C", std::to_string(run.reduce_c.max.words_sent)});
      t.add_row({"total", std::to_string(run.total.max.words_sent)});
      t.print(std::cout);
      std::cout << "max |C - AAᵀ| = " << err << "; bound = "
                << fmt_double(run.bound.communicated, 6) << " words\n";
      const int trc = report_trace(run, n1, n2, audit, trace_out);
      return err < 1e-8 ? trc : EXIT_FAILURE;
    }
    if (op == "syrk" && memory != 0) {
      const auto choice =
          core::plan_syrk_memory_aware(n1, n2, procs, memory);
      if (!choice) {
        std::cout << "No plan fits within " << memory
                  << " words/rank; memory-dependent bound = "
                  << fmt_double(core::syrk_memory_dependent_bound(
                                    n1, n2, procs, memory),
                                6)
                  << "\n";
        return EXIT_FAILURE;
      }
      std::cout << "Memory-aware plan: " << choice->plan << " (footprint "
                << fmt_double(choice->footprint_words, 6) << " words)\n";
      c_flag = choice->plan.c;
      p2_flag = choice->plan.p2;
      const char* names[] = {"1d", "2d", "3d"};
      algo = names[static_cast<int>(choice->plan.algorithm)];
    }

    // Explicit algorithm runs.
    auto need_c = [&]() {
      PARSYRK_REQUIRE(c_flag >= 2, "--c is required for 2d/3d runs");
      return c_flag;
    };
    if (op == "syrk") {
      core::SyrkRequest req(a);
      if (audit) req.with_audit();
      else if (tracing) req.with_trace();
      apply_exec_options(req);
      if (algo == "1d") {
        req.use_1d();
      } else if (algo == "2d") {
        req.use_2d(need_c());
      } else if (algo == "3d") {
        req.use_3d(need_c(), p2_flag);
      } else {
        PARSYRK_REQUIRE(false, "unknown --algo ", algo);
      }
      // The session is sized to the request: procs for 1D, the grid's rank
      // count for 2D/3D.
      const std::uint64_t ranks =
          algo == "1d" ? procs : c_flag * (c_flag + 1) * (algo == "3d" ? p2_flag : 1);
      core::Session session(static_cast<int>(ranks));
      if (explain) core::resolve_plan_report(session, req).explain(std::cout);
      const auto run = core::syrk(session, req);
      const int rc = report_run(
          run, max_abs_diff(run.c.view(), syrk_reference(a.view()).view()));
      const int trc = report_trace(run, n1, n2, audit, trace_out);
      return rc != EXIT_SUCCESS ? rc : trc;
    }
    if (op == "syr2k") {
      Matrix b = random_matrix(n1, n2, seed + 1);
      Matrix ref = syr2k_reference(a.view(), b.view());
      if (algo == "2d" || algo == "auto") {
        const auto c = need_c();
        core::Session session(static_cast<int>(c * (c + 1)));
        Matrix out = core::syr2k_2d(session.world(), a, b, c);
        report(session.world(), max_abs_diff(out.view(), ref.view()),
               bounds::syr2k_lower_bound(n1, n2, c * (c + 1)).communicated);
      } else if (algo == "1d") {
        core::Session session(static_cast<int>(procs));
        Matrix out = core::syr2k_1d(session.world(), a, b);
        report(session.world(), max_abs_diff(out.view(), ref.view()),
               bounds::syr2k_lower_bound(n1, n2, procs).communicated);
      } else {
        const auto c = need_c();
        core::Session session(static_cast<int>(c * (c + 1) * p2_flag));
        Matrix out = core::syr2k_3d(session.world(), a, b, c, p2_flag);
        report(session.world(), max_abs_diff(out.view(), ref.view()),
               bounds::syr2k_lower_bound(n1, n2, c * (c + 1) * p2_flag)
                   .communicated);
      }
      return EXIT_SUCCESS;
    }
    if (op == "cholesky") {
      // Build an SPD G = A·Aᵀ + n1·I, factor it on a grid.
      const auto grid = static_cast<std::uint64_t>(
          std::sqrt(static_cast<double>(procs)));
      PARSYRK_REQUIRE(grid >= 1, "cholesky needs at least one rank");
      Matrix g = syrk_reference(a.view());
      for (std::size_t i = 0; i < n1; ++i) {
        g(i, i) += static_cast<double>(n1);
      }
      core::Session session(static_cast<int>(grid * grid));
      const std::size_t tile =
          std::max<std::size_t>(1, n1 / (2 * grid));
      Matrix l = core::parallel_cholesky(session.world(), g, grid, tile);
      Matrix ref = cholesky_lower(g.view());
      report(session.world(), max_abs_diff(l.view(), ref.view()), 0.0);
      return EXIT_SUCCESS;
    }
    if (op == "symm") {
      const auto c = need_c();
      Matrix s = syrk_reference(random_matrix(n1, 8, seed + 2).view());
      Matrix b = random_matrix(n1, n2, seed + 3);
      core::Session session(static_cast<int>(c * (c + 1)));
      Matrix out = core::symm_2d(session.world(), s, b, c);
      report(session.world(),
             max_abs_diff(out.view(), symm_reference(s.view(), b.view()).view()),
             0.0);
      return EXIT_SUCCESS;
    }
    PARSYRK_REQUIRE(false, "unknown --op ", op);
  } catch (const InvalidArgument& e) {
    std::cerr << "error: " << e.what() << "\n\n"
              << cli.help("parsyrk",
                          "communication-optimal parallel SYRK & friends");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

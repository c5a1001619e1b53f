#include "core/session.hpp"

#include <utility>

#include "core/memory.hpp"
#include "distribution/triangle_block.hpp"
#include "support/check.hpp"

namespace parsyrk::core {

namespace {

/// Planner-path search options for one request: the session defaults with
/// the request's topology stamped in. The topology travels on the request
/// (with_topology), not the session, so it must reach the enumerator — and,
/// through these options, the service layer's plan-cache key.
PlanSearchOptions search_options(const Session& session,
                                 const SyrkRequest& req) {
  PlanSearchOptions opts = session.plan_options();
  if (req.options.ranks_per_node > 1) {
    opts.ranks_per_node = req.options.ranks_per_node;
  }
  return opts;
}

/// The processor cap a planner-path request searches under.
std::uint64_t planner_cap(const Session& session, const SyrkRequest& req) {
  return req.max_procs.value_or(static_cast<std::uint64_t>(session.size()));
}

/// The planner branch of resolve_plan and resolve_plan_report: the
/// session's resolver (the service layer's plan cache) when one is
/// installed, so repeated shapes skip the enumerator, else a fresh search.
/// Returns pick(report), with the report shared by the resolver or a
/// temporary, so neither caller copies more of it than it keeps.
template <class Pick>
auto search(const Session& session, const SyrkRequest& req, Pick pick) {
  const std::uint64_t n1 = req.a->rows();
  const std::uint64_t n2 = req.a->cols();
  const std::uint64_t cap = planner_cap(session, req);
  const PlanSearchOptions opts = search_options(session, req);
  if (const PlanResolver& resolver = session.plan_resolver()) {
    const auto report = resolver(n1, n2, cap, opts);
    PARSYRK_REQUIRE(report != nullptr, "plan resolver returned no report");
    return pick(*report);
  }
  return pick(enumerate_syrk_plans(n1, n2, cap, opts));
}

/// The plan of a request no search runs for: an explicit algorithm/grid,
/// or the cheapest plan that fits the memory limit.
Plan pinned_plan(const Session& session, const SyrkRequest& req) {
  const std::uint64_t n1 = req.a->rows();
  const std::uint64_t n2 = req.a->cols();
  if (!req.algorithm) {
    auto aware = plan_syrk_memory_aware(n1, n2, planner_cap(session, req),
                                        *req.memory_limit_words);
    PARSYRK_REQUIRE(aware.has_value(), "no SYRK plan for n1=", n1, ", n2=",
                    n2, " fits in ", *req.memory_limit_words,
                    " words of per-rank memory");
    return aware->plan;
  }
  Plan plan;
  plan.algorithm = *req.algorithm;
  if (plan.algorithm == Algorithm::kOneD) {
    plan.procs =
        req.procs_1d.value_or(static_cast<std::uint64_t>(session.size()));
    PARSYRK_REQUIRE(plan.procs >= 1, "1D SYRK needs at least 1 rank");
    plan.p2 = plan.procs;
  } else {
    const dist::TriangleBlockDistribution d(req.c);  // validates c prime
    if (plan.algorithm == Algorithm::kThreeD) {
      PARSYRK_REQUIRE(req.p2 >= 1, "p2 must be >= 1");
      plan.p2 = req.p2;
    }
    plan.c = req.c;
    plan.p1 = d.num_procs();
    plan.procs = plan.p1 * plan.p2;
  }
  // Theorem 1 is stated for n1 >= 2; a 1-row C is communication-trivial
  // and keeps the Plan's default regime.
  if (n1 >= 2) {
    plan.regime = bounds::syrk_lower_bound(n1, n2, plan.procs).regime;
  }
  return plan;
}

}  // namespace

comm::World& Session::world_for(const Plan& plan) {
  if (!plan.folded()) return world_;
  const auto key = std::make_pair(static_cast<int>(plan.logical_ranks()),
                                  static_cast<int>(plan.procs));
  auto it = folded_worlds_.find(key);
  if (it == folded_worlds_.end()) {
    it = folded_worlds_
             .emplace(key, std::make_unique<comm::World>(key.first, key.second,
                                                         *pool_))
             .first;
  }
  return *it->second;
}

Plan resolve_plan(const Session& session, const SyrkRequest& req) {
  PARSYRK_REQUIRE(req.a != nullptr, "request has no input matrix");
  if (req.algorithm || req.memory_limit_words) return pinned_plan(session, req);
  return search(session, req,
                [](const PlanReport& report) { return report.plan(); });
}

PlanReport resolve_plan_report(const Session& session, const SyrkRequest& req) {
  PARSYRK_REQUIRE(req.a != nullptr, "request has no input matrix");
  if (!req.algorithm && !req.memory_limit_words) {
    return search(session, req, [](auto&& report) -> PlanReport {
      return std::forward<decltype(report)>(report);
    });
  }
  // No search ran: wrap the externally determined plan as a one-row report
  // so --explain-plan output exists uniformly.
  return report_for_plan(req.a->rows(), req.a->cols(),
                         planner_cap(session, req), pinned_plan(session, req),
                         req.algorithm ? "explicitly requested"
                                       : "memory-aware choice");
}

SyrkRun syrk(Session& session, const SyrkRequest& req) {
  return internal::run_resolved(session, req,
                                internal::resolve_request(session, req));
}

namespace internal {

ResolvedRequest resolve_request(const Session& session,
                                const SyrkRequest& req) {
  ResolvedRequest out{resolve_plan(session, req), req.options};
  Plan& plan = out.plan;
  SyrkOptions& opts = out.options;
  PARSYRK_REQUIRE(plan.procs <= static_cast<std::uint64_t>(session.size()),
                  "request needs ", plan.procs, " ranks; session has ",
                  session.size());
  check_options(plan, req.a->rows(), req.a->cols(), opts);
  if (opts.pipeline_chunks >= 1) {
    // Pipelined segments ride pairwise handles; a hierarchical plan pick
    // reverts to the (tier-split) pairwise schedule so the plan reflects
    // what actually executes.
    plan.strategy = CollectiveStrategy::kPairwise;
  }
  // The planner's hierarchical pick executes through the hierarchical
  // collective kinds; explicit with_reduce/with_exchange choices win.
  if (plan.strategy == CollectiveStrategy::kHierarchical) {
    if (opts.reduce == ReduceKind::kPairwise) {
      opts.reduce = ReduceKind::kHierarchical;
    }
    if (opts.exchange == ExchangeKind::kPairwise) {
      opts.exchange = ExchangeKind::kHierarchical;
    }
  } else if (opts.ranks_per_node > 1 &&
             (opts.reduce == ReduceKind::kHierarchical ||
              opts.exchange == ExchangeKind::kHierarchical)) {
    // Explicit with_reduce/with_exchange hierarchical request: record it on
    // the plan so run.plan (and the auditor's model) match the execution.
    plan.strategy = CollectiveStrategy::kHierarchical;
  }
  return out;
}

void launch_request(comm::World& world, const SyrkRequest& req,
                    const ResolvedRequest& resolved, int base, RequestJob& job,
                    std::function<void()> on_complete) {
  job.exec = ExecBuffers(*req.a, resolved.plan);
  job.before = world.ledger().snapshot();
  job.handle = world.launch_ranks(
      base, base + static_cast<int>(resolved.plan.logical_ranks()),
      [&job, &resolved](comm::Comm& comm) {
        run_syrk_plan_rank(comm, job.exec.a(), resolved.plan,
                           resolved.options, job.exec.c());
      },
      std::move(on_complete));
}

SyrkRun run_resolved(Session& session, const SyrkRequest& req,
                     const ResolvedRequest& resolved) {
  const Plan& plan = resolved.plan;
  // Folded plans execute on a dedicated cached world of logical_ranks()
  // ranks folded onto plan.procs physical ranks; everything else runs on
  // the session's own world. The request's topology is stamped on the world
  // it runs on (ranks_per_node=1 restores the flat machine, so a later
  // untopology'd request on the same session world is unaffected).
  comm::World& world = session.world_for(plan);
  world.set_topology(resolved.options.ranks_per_node);
  if (req.trace) world.enable_tracing();
  if (req.verify) world.enable_verify();
  RequestJob job;
  const int active_ranks = static_cast<int>(plan.logical_ranks());
  if (active_ranks == world.size()) {
    // Full-size plan (and every folded plan — the folded world is sized to
    // the logical grid exactly): the launch step on the whole world.
    launch_request(world, req, resolved, /*base=*/0, job);
  } else {
    job.exec = ExecBuffers(*req.a, plan);
    job.before = world.ledger().snapshot();
    job.handle = world.launch_ranks(0, world.size(), [&](comm::Comm& wc) {
      const bool active = wc.rank() < active_ranks;
      // Every rank takes part in the split (it is collective and
      // ledger-muted, so measured volumes match a world of exactly
      // plan.procs ranks); idle ranks then sit the job out.
      comm::Comm sub = wc.split(active ? 0 : 1, wc.rank());
      if (!active) return;
      run_syrk_plan_rank(sub, job.exec.a(), plan, resolved.options,
                         job.exec.c());
    });
  }
  world.join(job.handle);
  return collect_run(world, req, plan, job);
}

SyrkRun collect_run(comm::World& world, const SyrkRequest& req,
                    const Plan& plan, RequestJob& job) {
  const int rank_begin = job.handle.rank_begin();
  const int rank_end = job.handle.rank_end();
  const Matrix& a = *req.a;
  const comm::CostLedger& ledger = world.ledger();
  SyrkRun run;
  run.plan = plan;
  run.c = job.exec.take_result();
  run.total = ledger.summary_since(job.before, rank_begin, rank_end);
  run.gather_a =
      ledger.summary_since(job.before, kPhaseGatherA, rank_begin, rank_end);
  run.reduce_c =
      ledger.summary_since(job.before, kPhaseReduceC, rank_begin, rank_end);
  run.scatter_a =
      ledger.summary_since(job.before, kPhaseScatterA, rank_begin, rank_end);
  if (world.ranks_per_node() > 1) {
    // Nodes the *plan* spans, not the whole session world — the request may
    // run on an active-ranks prefix of a larger world. Idle ranks record
    // nothing, so the inter summary's busiest node is among the active ones.
    const int rpn = world.ranks_per_node();
    run.nodes = (static_cast<int>(plan.procs) + rpn - 1) / rpn;
    run.total_inter =
        ledger.inter_summary_since(job.before, rank_begin, rank_end);
  }
  if (a.rows() >= 2) {
    run.bound = bounds::syrk_lower_bound(a.rows(), a.cols(), plan.procs);
  }
  if (req.trace) {
    // The range's world-shaped trace holds exactly this job's events;
    // rebasing them gives the trace of the same job run at base 0.
    run.trace = comm::extract_rank_range(
        world.trace_sink()->drain_ranks(/*poisoned=*/false, rank_begin,
                                        rank_end, job.handle.job_id()),
        rank_begin, rank_end);
  }
  return run;
}

}  // namespace internal

}  // namespace parsyrk::core

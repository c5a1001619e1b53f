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
  const std::uint64_t n1 = req.a->rows();
  const std::uint64_t n2 = req.a->cols();
  const auto session_procs = static_cast<std::uint64_t>(session.size());

  Plan plan;
  if (req.algorithm) {
    switch (*req.algorithm) {
      case Algorithm::kOneD:
        plan.algorithm = Algorithm::kOneD;
        plan.procs = req.procs_1d.value_or(session_procs);
        PARSYRK_REQUIRE(plan.procs >= 1, "1D SYRK needs at least 1 rank");
        plan.c = 0;
        plan.p1 = 1;
        plan.p2 = plan.procs;
        break;
      case Algorithm::kTwoD: {
        dist::TriangleBlockDistribution d(req.c);  // validates c prime
        plan.algorithm = Algorithm::kTwoD;
        plan.c = req.c;
        plan.p1 = d.num_procs();
        plan.p2 = 1;
        plan.procs = plan.p1;
        break;
      }
      case Algorithm::kThreeD: {
        dist::TriangleBlockDistribution d(req.c);
        PARSYRK_REQUIRE(req.p2 >= 1, "p2 must be >= 1");
        plan.algorithm = Algorithm::kThreeD;
        plan.c = req.c;
        plan.p1 = d.num_procs();
        plan.p2 = req.p2;
        plan.procs = plan.p1 * plan.p2;
        break;
      }
    }
    // Theorem 1 is stated for n1 >= 2; a 1-row C is communication-trivial
    // and keeps the Plan's default regime.
    if (n1 >= 2) {
      plan.regime = bounds::syrk_lower_bound(n1, n2, plan.procs).regime;
    }
  } else if (req.memory_limit_words) {
    auto aware = plan_syrk_memory_aware(n1, n2,
                                        req.max_procs.value_or(session_procs),
                                        *req.memory_limit_words);
    PARSYRK_REQUIRE(aware.has_value(), "no SYRK plan for n1=", n1, ", n2=",
                    n2, " fits in ", *req.memory_limit_words,
                    " words of per-rank memory");
    plan = aware->plan;
  } else {
    // Planner path: consult the session's resolver (the service layer's
    // plan cache) when installed, so repeated shapes skip the enumerator.
    const std::uint64_t cap = req.max_procs.value_or(session_procs);
    const PlanSearchOptions opts = search_options(session, req);
    if (const PlanResolver& resolver = session.plan_resolver()) {
      auto report = resolver(n1, n2, cap, opts);
      PARSYRK_REQUIRE(report != nullptr, "plan resolver returned no report");
      plan = report->plan();
    } else {
      plan = enumerate_syrk_plans(n1, n2, cap, opts).plan();
    }
  }
  return plan;
}

PlanReport resolve_plan_report(const Session& session, const SyrkRequest& req) {
  PARSYRK_REQUIRE(req.a != nullptr, "request has no input matrix");
  const std::uint64_t n1 = req.a->rows();
  const std::uint64_t n2 = req.a->cols();
  const std::uint64_t cap =
      req.max_procs.value_or(static_cast<std::uint64_t>(session.size()));
  if (!req.algorithm && !req.memory_limit_words) {
    const PlanSearchOptions opts = search_options(session, req);
    if (const PlanResolver& resolver = session.plan_resolver()) {
      auto report = resolver(n1, n2, cap, opts);
      PARSYRK_REQUIRE(report != nullptr, "plan resolver returned no report");
      return *report;
    }
    return enumerate_syrk_plans(n1, n2, cap, opts);
  }
  // No search ran: wrap the externally determined plan as a one-row report
  // so --explain-plan output exists uniformly.
  return report_for_plan(n1, n2, cap, resolve_plan(session, req),
                         req.algorithm ? "explicitly requested"
                                       : "memory-aware choice");
}

SyrkRun syrk(Session& session, const SyrkRequest& req) {
  const Matrix& a = *req.a;
  Plan plan = resolve_plan(session, req);
  PARSYRK_REQUIRE(plan.procs <= static_cast<std::uint64_t>(session.size()),
                  "request needs ", plan.procs, " ranks; session has ",
                  session.size());
  internal::check_options(plan, a.rows(), a.cols(), req.options);
  if (req.options.pipeline_chunks >= 1) {
    // Pipelined segments ride pairwise handles; a hierarchical plan pick
    // reverts to the (tier-split) pairwise schedule so run.plan reflects
    // what actually executed.
    plan.strategy = CollectiveStrategy::kPairwise;
  }
  // The planner's hierarchical pick executes through the hierarchical
  // collective kinds; explicit with_reduce/with_exchange choices win.
  SyrkOptions exec_opts = req.options;
  if (plan.strategy == CollectiveStrategy::kHierarchical) {
    if (exec_opts.reduce == ReduceKind::kPairwise) {
      exec_opts.reduce = ReduceKind::kHierarchical;
    }
    if (exec_opts.exchange == ExchangeKind::kPairwise) {
      exec_opts.exchange = ExchangeKind::kHierarchical;
    }
  } else if (req.options.ranks_per_node > 1 &&
             (exec_opts.reduce == ReduceKind::kHierarchical ||
              exec_opts.exchange == ExchangeKind::kHierarchical)) {
    // Explicit with_reduce/with_exchange hierarchical request: record it on
    // the plan so run.plan (and the auditor's model) match the execution.
    plan.strategy = CollectiveStrategy::kHierarchical;
  }

  // Folded plans execute on a dedicated cached world of logical_ranks()
  // ranks folded onto plan.procs physical ranks; everything else runs on
  // the session's own world. The request's topology is stamped on the world
  // it runs on (ranks_per_node=1 restores the flat machine, so a later
  // untopology'd request on the same session world is unaffected).
  comm::World& world = session.world_for(plan);
  world.set_topology(req.options.ranks_per_node);
  if (req.trace) world.enable_tracing();
  if (req.verify) world.enable_verify();
  const comm::CostLedger::Snapshot before = world.ledger().snapshot();
  internal::ExecBuffers exec(a, plan);
  const int active_ranks = static_cast<int>(plan.logical_ranks());
  if (active_ranks == world.size()) {
    // Full-size plan (and every folded plan — the folded world is sized to
    // the logical grid exactly): run directly on the world communicator (no
    // per-job split on the hot path).
    world.run([&](comm::Comm& wc) {
      internal::run_syrk_plan_rank(wc, exec.a(), plan, exec_opts, exec.c());
    });
  } else {
    world.run([&](comm::Comm& wc) {
      const bool active = wc.rank() < active_ranks;
      // Every rank takes part in the split (it is collective and
      // ledger-muted, so measured volumes match a world of exactly
      // plan.procs ranks); idle ranks then sit the job out.
      comm::Comm sub = wc.split(active ? 0 : 1, wc.rank());
      if (!active) return;
      internal::run_syrk_plan_rank(sub, exec.a(), plan, exec_opts, exec.c());
    });
  }

  SyrkRun run;
  run.plan = plan;
  run.c = exec.take_result();
  const comm::CostLedger& ledger = world.ledger();
  run.total = ledger.summary_since(before);
  run.gather_a = ledger.summary_since(before, internal::kPhaseGatherA);
  run.reduce_c = ledger.summary_since(before, internal::kPhaseReduceC);
  run.scatter_a = ledger.summary_since(before, internal::kPhaseScatterA);
  if (world.ranks_per_node() > 1) {
    // Nodes the *plan* spans, not the whole session world — the request may
    // run on an active-ranks prefix of a larger world. Idle ranks record
    // nothing, so the inter summary's busiest node is among the active ones.
    const int rpn = world.ranks_per_node();
    run.nodes = (static_cast<int>(plan.procs) + rpn - 1) / rpn;
    run.total_inter = ledger.inter_summary_since(before);
  }
  if (a.rows() >= 2) {
    run.bound = bounds::syrk_lower_bound(a.rows(), a.cols(), plan.procs);
  }
  if (req.trace) run.trace = world.trace_sink()->drain(/*poisoned=*/false);
  return run;
}

}  // namespace parsyrk::core

#include "trace/audit.hpp"

#include <cmath>
#include <limits>
#include <ostream>

#include "costmodel/algorithm_costs.hpp"
#include "support/table.hpp"
#include "trace/export.hpp"

namespace parsyrk::trace {

const char* audit_verdict_name(AuditVerdict v) {
  switch (v) {
    case AuditVerdict::kOk: return "ok";
    case AuditVerdict::kBeatsLowerBound: return "BEATS-LOWER-BOUND";
    case AuditVerdict::kExceedsModel: return "EXCEEDS-MODEL";
  }
  return "unknown";
}

namespace {

/// The closed-form words of the plan's algorithm, including the root-scatter
/// ingestion term when the run used one (the root pushes out all of A but
/// its own block: n1·n2·(1 − 1/P) words, outside eq. (3)'s accounting).
///
/// Padded plans are modeled at the execution shape (the algorithm ran on
/// exec_n1 rows, zero-filled or not); folded plans at fold_factor × the
/// logical grid's per-rank cost — the busiest physical rank hosts
/// fold_factor logical ranks, and co-located traffic (which the ledger
/// skips) only pulls the measurement below this envelope.
double modeled_words(std::uint64_t n1, std::uint64_t n2,
                     const core::SyrkRun& run) {
  const core::Plan& plan = run.plan;
  const costmodel::SyrkShape shape{plan.exec_n1(n1), n2};
  double words = 0.0;
  // A hierarchical run's busiest rank is the node leader, whose critical
  // path carries both tiers (binomial-reduce inflow plus the inter-node
  // exchange) — the flat eq. (3)/(10) envelope does not apply. Model it
  // with the hierarchical closed forms, both tiers summed.
  const bool hier =
      run.nodes >= 2 &&
      plan.strategy == core::CollectiveStrategy::kHierarchical &&
      plan.procs % static_cast<std::uint64_t>(run.nodes) == 0 &&
      plan.algorithm != core::Algorithm::kThreeD;
  const std::uint64_t nodes = hier ? static_cast<std::uint64_t>(run.nodes) : 0;
  const std::uint64_t rpn = hier ? plan.procs / nodes : 1;
  switch (plan.algorithm) {
    case core::Algorithm::kOneD: {
      const costmodel::CollectiveCost c =
          hier ? costmodel::syrk_1d_cost_hier(shape, nodes, rpn)
               : costmodel::syrk_1d_cost(shape, plan.procs);
      words = c.words + c.words_intra;
      break;
    }
    case core::Algorithm::kTwoD: {
      const costmodel::CollectiveCost c =
          hier ? costmodel::syrk_2d_cost_hier(shape, plan.c, rpn)
               : costmodel::syrk_2d_cost(shape, plan.c);
      words = c.words + c.words_intra;
      break;
    }
    case core::Algorithm::kThreeD:
      words = costmodel::syrk_3d_cost(shape, plan.c, plan.p2).words;
      break;
  }
  words *= static_cast<double>(plan.fold_factor());
  if (run.scatter_a.max.words_sent > 0) {
    const double p = static_cast<double>(plan.procs);
    words += static_cast<double>(shape.n1) * static_cast<double>(n2) *
             (1.0 - 1.0 / p);
  }
  return words;
}

}  // namespace

AuditReport BoundAuditor::audit(std::uint64_t n1, std::uint64_t n2,
                                const core::SyrkRun& run,
                                const comm::JobTrace* trace) const {
  AuditReport rep;
  rep.plan = run.plan;
  rep.bound = run.bound;
  rep.measured_words = static_cast<double>(run.total.critical_path_words());
  rep.modeled_words = modeled_words(n1, n2, run);

  const double inf = std::numeric_limits<double>::infinity();
  rep.ratio_vs_bound = rep.bound.communicated > 0.0
                           ? rep.measured_words / rep.bound.communicated
                           : (rep.measured_words > 0.0 ? inf : 1.0);
  rep.ratio_vs_model = rep.modeled_words > 0.0
                           ? rep.measured_words / rep.modeled_words
                           : (rep.measured_words > 0.0 ? inf : 1.0);

  const std::pair<const char*, const comm::CostSummary*> phase_rows[] = {
      {core::internal::kPhaseScatterA, &run.scatter_a},
      {core::internal::kPhaseGatherA, &run.gather_a},
      {core::internal::kPhaseReduceC, &run.reduce_c},
  };
  for (const auto& [name, s] : phase_rows) {
    if (s->max.words_sent == 0 && s->max.msgs_sent == 0) continue;
    rep.phases.push_back({name, s->max.words_sent, s->max.msgs_sent,
                          s->total.words_sent});
  }

  if (rep.bound.communicated > 0.0 &&
      rep.measured_words < (1.0 - opts_.bound_slack) * rep.bound.communicated) {
    rep.verdict = AuditVerdict::kBeatsLowerBound;
  } else if (rep.measured_words >
             (1.0 + opts_.model_tolerance) * rep.modeled_words +
                 static_cast<double>(run.plan.procs)) {
    rep.verdict = AuditVerdict::kExceedsModel;
  }

  // Two-level topology: audit the scarce tier as a machine of N = #nodes
  // ranks. Requires 2 <= nodes < procs (nodes == procs is the flat machine)
  // and n1 >= 2 (Theorem 1's domain).
  if (run.nodes >= 2 &&
      static_cast<std::uint64_t>(run.nodes) < run.plan.procs && n1 >= 2) {
    rep.inter_checked = true;
    rep.nodes = run.nodes;
    rep.inter_bound =
        bounds::syrk_lower_bound(n1, n2, static_cast<std::uint64_t>(run.nodes));
    rep.measured_inter_words =
        static_cast<double>(run.total_inter.critical_path_words());
    rep.ratio_inter_vs_bound =
        rep.inter_bound.communicated > 0.0
            ? rep.measured_inter_words / rep.inter_bound.communicated
            : (rep.measured_inter_words > 0.0 ? inf : 1.0);
    if (rep.verdict == AuditVerdict::kOk &&
        rep.inter_bound.communicated > 0.0 &&
        rep.measured_inter_words <
            (1.0 - opts_.bound_slack) * rep.inter_bound.communicated) {
      rep.verdict = AuditVerdict::kBeatsLowerBound;
    }
  }

  if (trace != nullptr) {
    rep.trace_checked = true;
    // The run may have executed on the first ranks of a larger session
    // world; the trace keeps the world's rank count, ranks outside the
    // request with zero counters, so a direct per-rank comparison against
    // the request-scoped rollup is still exact — provided no events were
    // lost.
    Rollup rollup(*trace);
    const auto per_rank = rollup.per_rank();
    rep.trace_consistent = trace->dropped == 0 && !trace->poisoned;
    if (rep.trace_consistent) {
      comm::Counters total;
      for (const auto& c : per_rank) total += c;
      rep.trace_consistent =
          total == run.total.total &&
          rollup.summary().critical_path_words() ==
              run.total.critical_path_words();
    }
  }
  return rep;
}

void print_audit(std::ostream& os, const AuditReport& rep) {
  os << "Audit: " << core::algorithm_name(rep.plan.algorithm) << " plan on "
     << rep.plan.procs << " ranks";
  if (rep.plan.folded()) {
    os << " (" << rep.plan.logical_ranks() << " logical, folded)";
  }
  os << ", Theorem 1 case " << bounds::regime_name(rep.bound.regime) << "\n";
  Table t({"phase", "max words/rank", "max msgs/rank", "total words"});
  for (const auto& ph : rep.phases) {
    t.add_row({ph.phase, std::to_string(ph.max_words),
               std::to_string(ph.max_msgs), std::to_string(ph.total_words)});
  }
  t.add_row({"total", fmt_double(rep.measured_words, 8), "", ""});
  t.add_row({"theorem-1 bound", fmt_double(rep.bound.communicated, 8), "", ""});
  t.add_row({"modeled cost", fmt_double(rep.modeled_words, 8), "", ""});
  t.print(os);
  os << "measured/bound = " << fmt_double(rep.ratio_vs_bound, 4)
     << ", measured/model = " << fmt_double(rep.ratio_vs_model, 4) << "\n";
  if (rep.inter_checked) {
    os << "inter-node (" << rep.nodes
       << " nodes): busiest node " << fmt_double(rep.measured_inter_words, 8)
       << " words, Theorem 1 @ P=" << rep.nodes << " bound "
       << fmt_double(rep.inter_bound.communicated, 8)
       << ", ratio = " << fmt_double(rep.ratio_inter_vs_bound, 4) << "\n";
  }
  if (rep.trace_checked) {
    os << "trace/ledger consistency: "
       << (rep.trace_consistent ? "ok" : "MISMATCH") << "\n";
  }
  os << "verdict: " << audit_verdict_name(rep.verdict) << "\n";
}

}  // namespace parsyrk::trace

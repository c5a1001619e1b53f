// Two-level topology suite: World topology API, tiered ledger accounting,
// hierarchical collectives, and the end-to-end session/audit plumbing.
//
// The tentpole invariants pinned here:
//   - a topology'd world prices intra-node words on the cheap tier and
//     inter-node words on the scarce tier; the ordinary (flat) counters are
//     UNCHANGED, so a topology'd pairwise run replays the flat schedule
//     byte for byte (the goldens never fork);
//   - the hierarchical collectives compute the same answer as the flat ones
//     (exactly, on integer-valued inputs — summation order differs);
//   - the busiest node's inter volume matches the closed forms: pairwise
//     tier-split R·T·(P−R)/P, hierarchical leader exchange T·(1−1/N);
//   - the BoundAuditor audits the inter-node volume against Theorem 1
//     re-instantiated at P = #nodes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "core/session.hpp"
#include "matrix/kernels.hpp"
#include "simmpi/comm.hpp"
#include "support/check.hpp"
#include "trace/audit.hpp"
#include "trace/export.hpp"

namespace parsyrk {
namespace {

/// Integer-valued test matrix: double sums of small integers are exact
/// regardless of association, so hierarchical and flat schedules (which sum
/// in different orders) must agree bitwise.
Matrix integer_matrix(std::size_t n1, std::size_t n2) {
  Matrix a(n1, n2);
  for (std::size_t i = 0; i < n1; ++i) {
    for (std::size_t j = 0; j < n2; ++j) {
      a(i, j) = static_cast<double>((i * 7 + j * 3) % 5) - 2.0;
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// World topology API
// ---------------------------------------------------------------------------

TEST(WorldTopology, SetTopologyValidatesAndMapsNodes) {
  comm::World w(6);
  EXPECT_THROW(w.set_topology(0), InvalidArgument);
  EXPECT_THROW(w.set_topology(4), InvalidArgument);  // 6 % 4 != 0
  w.set_topology(3);
  EXPECT_EQ(w.ranks_per_node(), 3);
  EXPECT_EQ(w.nodes(), 2);
  EXPECT_EQ(w.node_of(0), 0);
  EXPECT_EQ(w.node_of(2), 0);
  EXPECT_EQ(w.node_of(3), 1);
  EXPECT_EQ(w.tier_between(0, 2), comm::Tier::kIntra);
  EXPECT_EQ(w.tier_between(2, 3), comm::Tier::kInter);
  // rpn = 1 restores the flat machine.
  w.set_topology(1);
  EXPECT_EQ(w.nodes(), 6);
}

TEST(WorldTopology, FoldedWorldsRejectTopology) {
  // Folding already models co-location; stacking a node topology on top
  // would double-count it.
  comm::World folded(8, 4);
  EXPECT_THROW(folded.set_topology(2), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Tiered ledger accounting
// ---------------------------------------------------------------------------

TEST(LedgerTiers, InterSummaryCountsOnlyCrossNodeWords) {
  // All-to-all of one word per destination on 4 ranks, 2 per node: each
  // rank sends 3 words total, of which 2 cross the node boundary. Per node
  // (2 ranks), inter words = 4; ordinary counters see all 12.
  comm::World w(4);
  w.set_topology(2);
  w.run([](comm::Comm& c) {
    std::vector<std::vector<double>> send(4);
    for (int d = 0; d < 4; ++d) {
      if (d != c.rank()) send[d] = {static_cast<double>(c.rank())};
    }
    auto got = c.all_to_all_v(send);
    for (int s = 0; s < 4; ++s) {
      if (s == c.rank()) continue;
      ASSERT_EQ(got[s].size(), 1u);
      EXPECT_EQ(got[s][0], static_cast<double>(s));
    }
  });
  const comm::CostSummary flat = w.ledger().summary();
  EXPECT_EQ(flat.total.words_sent, 12u);
  const comm::CostSummary inter = w.ledger().inter_summary();
  EXPECT_EQ(inter.total.words_sent, 8u);   // 2 cross words per rank
  EXPECT_EQ(inter.max.words_sent, 4u);     // busiest NODE, not rank
}

TEST(LedgerTiers, FlatWorldRecordsIdenticallyWithAndWithoutTopologyReset) {
  // Stamping rpn=1 must be a no-op on the ordinary counters.
  auto run = [](bool stamp) {
    comm::World w(4);
    if (stamp) w.set_topology(1);
    w.run([](comm::Comm& c) {
      std::vector<double> data(8, static_cast<double>(c.rank()));
      c.reduce_scatter(data, {2, 2, 2, 2});
    });
    return w.ledger().summary();
  };
  const comm::CostSummary a = run(false);
  const comm::CostSummary b = run(true);
  EXPECT_TRUE(a.total == b.total);
  EXPECT_TRUE(a.max == b.max);
}

// ---------------------------------------------------------------------------
// Hierarchical collectives
// ---------------------------------------------------------------------------

TEST(HierCollectives, ReduceScatterHierMatchesFlatExactly) {
  comm::World w(4);
  w.set_topology(2);
  w.run([](comm::Comm& c) {
    std::vector<double> data(8);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<double>((c.rank() * 11 + i * 3) % 7) - 3.0;
    }
    const std::vector<std::size_t> sizes = {2, 2, 2, 2};
    ASSERT_TRUE(c.hier_available());
    const std::vector<double> hier = c.reduce_scatter_hier(data, sizes);
    const std::vector<double> flat = c.reduce_scatter(data, sizes);
    ASSERT_EQ(hier.size(), flat.size());
    for (std::size_t i = 0; i < hier.size(); ++i) {
      EXPECT_EQ(hier[i], flat[i]) << "rank " << c.rank() << " elem " << i;
    }
  });
}

TEST(HierCollectives, AllToAllVHierMatchesFlatWithRaggedBlocks) {
  comm::World w(6);
  w.set_topology(3);
  w.run([](comm::Comm& c) {
    // Ragged, some destinations empty — exercises the frame encoding.
    std::vector<std::vector<double>> send(6);
    for (int d = 0; d < 6; ++d) {
      const int len = (c.rank() + d) % 3;  // 0, 1, or 2 words
      for (int k = 0; k < len; ++k) {
        send[d].push_back(static_cast<double>(c.rank() * 100 + d * 10 + k));
      }
    }
    ASSERT_TRUE(c.hier_available());
    const auto hier = c.all_to_all_v_hier(send);
    const auto flat = c.all_to_all_v(send);
    ASSERT_EQ(hier.size(), flat.size());
    for (std::size_t s = 0; s < hier.size(); ++s) {
      EXPECT_EQ(hier[s], flat[s]) << "rank " << c.rank() << " from " << s;
    }
  });
}

TEST(HierCollectives, UnavailableTopologyFallsBackToFlat) {
  // Flat world: hier_available is false and the hier entry points must
  // still produce correct results (they dispatch to the flat schedule).
  comm::World w(4);
  w.run([](comm::Comm& c) {
    EXPECT_FALSE(c.hier_available());
    std::vector<double> data(4, static_cast<double>(c.rank()));
    const auto got = c.reduce_scatter_hier(data, {1, 1, 1, 1});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 0.0 + 1.0 + 2.0 + 3.0);
  });
  // Single whole node (p / rpn < 2): likewise unavailable.
  comm::World one(4);
  one.set_topology(4);
  one.run([](comm::Comm& c) { EXPECT_FALSE(c.hier_available()); });
}

// ---------------------------------------------------------------------------
// End-to-end: session runs on a topology
// ---------------------------------------------------------------------------

TEST(SyrkTopology, HierarchicalRunMatchesReferenceAndInterVolume) {
  // 1D on P=8, 2 ranks/node -> N=4 nodes. The hierarchical leader exchange
  // moves T·(1−1/N) inter words out of the busiest node, T = n1(n1+1)/2.
  const std::size_t n1 = 16, n2 = 12;
  Matrix a = integer_matrix(n1, n2);
  core::Session session(8);
  core::SyrkRequest req(a);
  req.use_1d().with_topology(2).with_reduce(core::ReduceKind::kHierarchical);
  const core::SyrkRun run = core::syrk(session, req);
  EXPECT_TRUE(run.c == syrk_reference(a.view()));
  EXPECT_EQ(run.nodes, 4);
  EXPECT_EQ(run.plan.strategy, core::CollectiveStrategy::kHierarchical);
  const std::uint64_t tri = n1 * (n1 + 1) / 2;  // 136
  EXPECT_EQ(run.total_inter.max.words_sent, tri - tri / 4);  // (1−1/N)·T
}

TEST(SyrkTopology, PairwiseTierSplitInterVolumeMatchesClosedForm) {
  // Flat pairwise reduce-scatter on a topology: busiest node's inter words
  // are R·T·(P−R)/P — R ranks each send T/P to each of P−R off-node peers.
  const std::size_t n1 = 16, n2 = 12;
  Matrix a = integer_matrix(n1, n2);
  core::Session session(8);
  core::SyrkRequest req(a);
  req.use_1d().with_topology(2);  // explicit algo: strategy stays pairwise
  const core::SyrkRun run = core::syrk(session, req);
  EXPECT_TRUE(run.c == syrk_reference(a.view()));
  EXPECT_EQ(run.nodes, 4);
  EXPECT_EQ(run.plan.strategy, core::CollectiveStrategy::kPairwise);
  const std::uint64_t tri = n1 * (n1 + 1) / 2;  // 136, divisible by P=8
  EXPECT_EQ(run.total_inter.max.words_sent, 2 * (tri / 8) * 6);
}

TEST(SyrkTopology, PairwiseScheduleIsByteIdenticalToFlatRun) {
  // The goldens never fork: a topology'd pairwise run must serialize to the
  // same PSYRKTRC bytes as the flat run (tier accounting is observational).
  Matrix a = integer_matrix(24, 16);
  auto traced = [&](int rpn) {
    core::Session session(6);
    core::SyrkRequest req(a);
    req.use_1d().with_trace();
    if (rpn > 1) req.with_topology(rpn);
    return core::syrk(session, req);
  };
  const core::SyrkRun flat = traced(1);
  const core::SyrkRun topo = traced(2);
  ASSERT_TRUE(flat.trace.has_value());
  ASSERT_TRUE(topo.trace.has_value());
  EXPECT_EQ(trace::to_binary(*topo.trace), trace::to_binary(*flat.trace));
  EXPECT_TRUE(topo.total.total == flat.total.total);
  EXPECT_TRUE(topo.total.max == flat.total.max);
}

TEST(SyrkTopology, FoldedPlanRejectsTopology) {
  Matrix a = integer_matrix(12, 8);
  core::Session session(4);
  core::SyrkRequest req(a);
  req.use_2d(2).with_topology(2);  // 2D needs 6 ranks -> folds onto 4
  EXPECT_THROW(core::syrk(session, req), InvalidArgument);
}

TEST(SyrkTopology, TopologyIsPerRequestNotSticky) {
  // A flat request after a topology'd one must see a flat world again.
  Matrix a = integer_matrix(16, 12);
  core::Session session(8);
  core::SyrkRequest topo(a);
  topo.use_1d().with_topology(2);
  const core::SyrkRun first = core::syrk(session, topo);
  EXPECT_EQ(first.nodes, 4);
  core::SyrkRequest flat(a);
  flat.use_1d();
  const core::SyrkRun second = core::syrk(session, flat);
  EXPECT_EQ(second.nodes, 0);
  EXPECT_EQ(second.total_inter.total.words_sent, 0u);
}

TEST(SyrkTopology, SubSessionRequestMatchesExactSession) {
  // A plan smaller than its topology'd session runs on the session's first
  // plan-size ranks (the other ranks record nothing), so it measures what
  // the same request measures on a session of exactly its size.
  Matrix a = integer_matrix(64, 32);
  const std::pair<core::ReduceKind, std::uint64_t> kinds[] = {
      {core::ReduceKind::kPairwise, 2080},
      {core::ReduceKind::kHierarchical, 1040}};
  for (const auto& [kind, inter_words] : kinds) {
    core::SyrkRequest req(a);
    req.use_1d(4).with_topology(2).with_reduce(kind).with_trace();
    core::Session larger(8);
    core::Session exact(4);
    const core::SyrkRun sub = core::syrk(larger, req);
    const core::SyrkRun ref = core::syrk(exact, req);
    EXPECT_TRUE(sub.c == ref.c);
    EXPECT_EQ(sub.nodes, 2);
    EXPECT_EQ(ref.nodes, 2);
    EXPECT_EQ(sub.total_inter.critical_path_words(), inter_words);
    EXPECT_EQ(ref.total_inter.critical_path_words(), inter_words);
    EXPECT_EQ(sub.total.total, ref.total.total);
    ASSERT_TRUE(sub.trace.has_value());
    ASSERT_TRUE(ref.trace.has_value());
    EXPECT_EQ(sub.trace->events, ref.trace->events);
  }
  // Six ranks on nodes of four touch two nodes, the second one half full.
  core::Session larger(8);
  core::SyrkRequest req(a);
  req.use_1d(6).with_topology(4);
  const core::SyrkRun run = core::syrk(larger, req);
  EXPECT_EQ(run.nodes, 2);
  EXPECT_EQ(run.total_inter.critical_path_words(), 2776u);
  EXPECT_EQ(run.total.critical_path_words(), 1735u);
}

// ---------------------------------------------------------------------------
// BoundAuditor: inter-node volume vs Theorem 1 at P = #nodes
// ---------------------------------------------------------------------------

TEST(TopologyAudit, InterVolumeAuditedAgainstNodeCountBound) {
  const std::size_t n1 = 24, n2 = 16;
  Matrix a = integer_matrix(n1, n2);
  core::Session session(8);
  core::SyrkRequest req(a);
  req.use_1d()
      .with_topology(2)
      .with_reduce(core::ReduceKind::kHierarchical)
      .with_trace();
  const core::SyrkRun run = core::syrk(session, req);
  const trace::AuditReport rep =
      trace::BoundAuditor().audit(n1, n2, run, &*run.trace);
  EXPECT_TRUE(rep.inter_checked);
  EXPECT_EQ(rep.nodes, 4);
  EXPECT_EQ(rep.measured_inter_words,
            static_cast<double>(run.total_inter.max.words_sent));
  // The bound is Theorem 1 re-instantiated at P = nodes.
  const auto want = bounds::syrk_lower_bound(n1, n2, 4);
  EXPECT_EQ(rep.inter_bound.communicated, want.communicated);
  EXPECT_GE(rep.ratio_inter_vs_bound, 1.0 - 0.10);
  EXPECT_TRUE(rep.ok()) << trace::audit_verdict_name(rep.verdict);
}

TEST(TopologyAudit, FlatRunsSkipTheInterCheck) {
  const std::size_t n1 = 16, n2 = 12;
  Matrix a = integer_matrix(n1, n2);
  core::Session session(4);
  core::SyrkRequest req(a);
  req.use_1d().with_trace();
  const core::SyrkRun run = core::syrk(session, req);
  const trace::AuditReport rep =
      trace::BoundAuditor().audit(n1, n2, run, &*run.trace);
  EXPECT_FALSE(rep.inter_checked);
  EXPECT_TRUE(rep.ok());
}

// ---------------------------------------------------------------------------
// Planner: topology-aware pricing and strategy selection
// ---------------------------------------------------------------------------

TEST(TopologyPlanner, EnumeratorPicksHierarchicalWhenItPricesCheaper) {
  // Small problem, deep node (4 ranks/node): the hierarchical realization
  // collapses P−R inter messages into N−1, which dominates at this size
  // under the default machine (α = 10·α0).
  core::PlanSearchOptions opts;
  opts.ranks_per_node = 4;
  const core::PlanReport report = core::enumerate_syrk_plans(48, 32, 8, opts);
  EXPECT_EQ(report.plan().strategy, core::CollectiveStrategy::kHierarchical);
  // The flat search never sets a strategy.
  const core::PlanReport flat = core::enumerate_syrk_plans(48, 32, 8, {});
  EXPECT_EQ(flat.plan().strategy, core::CollectiveStrategy::kPairwise);
}

TEST(TopologyPlanner, TopologyPricingNeverBeatsFlatForSamePlan) {
  // Tier-splitting moves words to a strictly cheaper tier, so pricing any
  // unfolded plan on a topology can only lower its modeled runtime.
  core::PlanSearchOptions opts;
  const core::PlanReport flat = core::enumerate_syrk_plans(64, 48, 8, {});
  const core::Plan plan = flat.plan();
  const double flat_s = core::plan_modeled_seconds(64, 48, plan);
  const double topo_s =
      core::plan_modeled_seconds(64, 48, plan, opts.machine, 4);
  EXPECT_LE(topo_s, flat_s);
  EXPECT_GT(topo_s, 0.0);
}

TEST(TopologyPlanner, PlanCollectiveCostSplitsTiers) {
  core::Plan plan;
  plan.algorithm = core::Algorithm::kOneD;
  plan.procs = 8;
  plan.p1 = 1;
  plan.p2 = 8;
  const costmodel::CollectiveCost flat =
      core::plan_collective_cost(32, 16, plan, 1);
  EXPECT_EQ(flat.words_intra, 0.0);
  const costmodel::CollectiveCost split =
      core::plan_collective_cost(32, 16, plan, 2);
  EXPECT_GT(split.words_intra, 0.0);
  // Words are conserved across the split.
  EXPECT_DOUBLE_EQ(split.words + split.words_intra, flat.words);
  // Non-divisible node size: priced flat (no partial nodes).
  const costmodel::CollectiveCost odd =
      core::plan_collective_cost(32, 16, plan, 3);
  EXPECT_EQ(odd.words_intra, 0.0);
  EXPECT_DOUBLE_EQ(odd.words, flat.words);
}

}  // namespace
}  // namespace parsyrk

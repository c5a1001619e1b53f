// Tests for src/verify: the dynamic SPMD protocol verifier (collective
// matching, deadlock watchdog, leak analysis, topology routing) and the
// offline trace lint engine.
//
// Each defect-class test runs an intentionally broken SPMD body under
// World::enable_verify() and asserts the structured, rank-attributed
// finding — never a hang, never a process abort. The clean-run tests pin
// the zero-false-positive guarantee the fuzz suites extend.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "matrix/random.hpp"
#include "simmpi/comm.hpp"
#include "support/check.hpp"
#include "verify/lint.hpp"
#include "verify/report.hpp"
#include "verify/verifier.hpp"

namespace parsyrk {
namespace {

using comm::Comm;
using comm::World;
using verify::FindingKind;
using verify::VerifyError;
using verify::VerifyReport;

/// Runs `body` on a verifying world of `ranks` ranks and returns the report
/// of the VerifyError it must throw.
VerifyReport expect_verify_failure(int ranks,
                                   const std::function<void(Comm&)>& body) {
  World world(ranks);
  world.enable_verify();
  try {
    world.run(body);
  } catch (const VerifyError& e) {
    EXPECT_FALSE(e.report().empty());
    return e.report();
  }
  ADD_FAILURE() << "expected a VerifyError";
  return {};
}

// ---------------------------------------------------------------------------
// Analysis 1: collective matching
// ---------------------------------------------------------------------------

TEST(VerifyCollective, KindMismatchNamesBothSites) {
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    std::vector<double> x(4, 1.0);
    if (comm.rank() == 0) {
      comm.all_gather_bruck(x);
    } else {
      comm.reduce_scatter_bruck(x);
    }
  });
  ASSERT_TRUE(report.has(FindingKind::kCollectiveKindMismatch))
      << report.to_string();
  const auto* f = report.first(FindingKind::kCollectiveKindMismatch);
  // One of the two ranks is the divergent poster; the other defined the slot.
  EXPECT_NE(f->rank, -1);
  EXPECT_NE(f->peer, -1);
  EXPECT_NE(f->rank, f->peer);
  EXPECT_NE(f->detail.find("all_gather_bruck"), std::string::npos) << f->detail;
  EXPECT_NE(f->detail.find("reduce_scatter_bruck"), std::string::npos)
      << f->detail;
}

TEST(VerifyCollective, CountMismatch) {
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    std::vector<double> mine(comm.rank() == 0 ? 3 : 5, 1.0);
    comm.all_gather(mine);
  });
  ASSERT_TRUE(report.has(FindingKind::kCollectiveCountMismatch))
      << report.to_string();
}

TEST(VerifyCollective, RootMismatch) {
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    std::vector<double> data(4, static_cast<double>(comm.rank()));
    comm.bcast(data, /*root=*/comm.rank() == 0 ? 0 : 1);
  });
  ASSERT_TRUE(report.has(FindingKind::kCollectiveRootMismatch))
      << report.to_string();
}

TEST(VerifyCollective, SequenceLengthMismatch) {
  // Rank 0 scatters (root-side: sends only, so it completes); rank 1 never
  // posts the collective. Scope end must flag the differing collective
  // counts — and the never-received scatter part as a leak.
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::vector<double>> parts{{1.0}, {2.0}};
      comm.scatter(parts, /*root=*/0);
    }
  });
  ASSERT_TRUE(report.has(FindingKind::kCollectiveSeqMismatch))
      << report.to_string();
  ASSERT_TRUE(report.has(FindingKind::kMessageLeak)) << report.to_string();
}

// ---------------------------------------------------------------------------
// Analysis 2: deadlock detection (the watchdog replaces the hang)
// ---------------------------------------------------------------------------

TEST(VerifyDeadlock, RecvCycleReported) {
  // The classic SPMD bug: both ranks receive before sending. Without the
  // verifier this hangs forever; with it, the confirmed cycle is thrown.
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    const int peer = 1 - comm.rank();
    auto got = comm.recv(peer, 0);  // never satisfiable
    comm.send(peer, 0, std::vector<double>{1.0});
  });
  ASSERT_TRUE(report.has(FindingKind::kDeadlockCycle)) << report.to_string();
  const auto* f = report.first(FindingKind::kDeadlockCycle);
  // The cycle annotation names both ranks and what each waits for.
  EXPECT_NE(f->detail.find("rank 0"), std::string::npos) << f->detail;
  EXPECT_NE(f->detail.find("rank 1"), std::string::npos) << f->detail;
}

TEST(VerifyDeadlock, ThreeRankCycle) {
  const auto report = expect_verify_failure(3, [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    auto got = comm.recv(next, 3);  // 0<-1<-2<-0: a 3-cycle
    comm.send(next, 3, std::vector<double>{2.0});
  });
  ASSERT_TRUE(report.has(FindingKind::kDeadlockCycle)) << report.to_string();
}

TEST(VerifyDeadlock, StrandedRecvOnFinishedPeer) {
  // Rank 1 exits without ever sending; rank 0's receive can never be
  // satisfied. Reported as a stranded wait (not a cycle).
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.recv(1, 9);
  });
  ASSERT_TRUE(report.has(FindingKind::kStrandedWait)) << report.to_string();
  const auto* f = report.first(FindingKind::kStrandedWait);
  EXPECT_EQ(f->rank, 0);
  EXPECT_EQ(f->peer, 1);
}

TEST(VerifyDeadlock, StrandedBarrierOnFinishedPeer) {
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.barrier();  // rank 1 skips it
  });
  ASSERT_TRUE(report.has(FindingKind::kStrandedWait)) << report.to_string();
}

TEST(VerifyDeadlock, RequestWaitTripsWatchdog) {
  // Nonblocking handles block inside Request::wait, not the mailbox pop —
  // the watchdog must cover that path too.
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.irecv(1, 5).wait();
  });
  ASSERT_TRUE(report.has(FindingKind::kStrandedWait)) << report.to_string();
}

// ---------------------------------------------------------------------------
// Analysis 3: leaks at job boundaries
// ---------------------------------------------------------------------------

TEST(VerifyLeak, UnreceivedMessageAttributed) {
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 11, std::vector<double>(7, 1.0));
  });
  ASSERT_TRUE(report.has(FindingKind::kMessageLeak)) << report.to_string();
  const auto* f = report.first(FindingKind::kMessageLeak);
  EXPECT_EQ(f->rank, 1);  // the mailbox holding the orphan
  EXPECT_EQ(f->peer, 0);  // the rank that sent it
  EXPECT_NE(f->detail.find('7'), std::string::npos) << f->detail;
}

TEST(VerifyLeak, AbandonedRequestReported) {
  const auto report = expect_verify_failure(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      auto pending = comm.irecv(1, 5);  // dropped without wait()
    }
  });
  ASSERT_TRUE(report.has(FindingKind::kRequestLeak)) << report.to_string();
  EXPECT_EQ(report.first(FindingKind::kRequestLeak)->rank, 0);
}

TEST(VerifyLeak, WorldUsableAfterVerifyError) {
  // Verification failures are recoverable: the world is reset before the
  // throw, so the next (correct) job runs normally.
  World world(2);
  world.enable_verify();
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 0, std::vector<double>{1.0});
  }),
               VerifyError);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>{5.0});
    } else {
      auto got = comm.recv(0, 0);
      EXPECT_DOUBLE_EQ(got[0], 5.0);
    }
  });
}

// ---------------------------------------------------------------------------
// Analysis 4: topology routing
// ---------------------------------------------------------------------------

TEST(VerifyTopology, LeaderBypassCaught) {
  // Simulates a buggy hierarchical schedule: rank 1 (non-leader of node 0)
  // sends inter-node to rank 3 (non-leader of node 1) inside a declared
  // hierarchical scope. The send itself must throw.
  World world(4);
  world.enable_verify();
  world.set_topology(2);
  verify::Verifier* v = world.verifier();
  ASSERT_NE(v, nullptr);
  try {
    world.run([&](Comm& comm) {
      if (comm.rank() == 1) {
        v->on_hier_begin(1);
        comm.send(3, 0, std::vector<double>(8, 1.0));
        v->on_hier_end(1);
      } else if (comm.rank() == 3) {
        auto got = comm.recv(1, 0);
      }
    });
    FAIL() << "expected a VerifyError";
  } catch (const VerifyError& e) {
    ASSERT_TRUE(e.report().has(FindingKind::kLeaderBypass))
        << e.report().to_string();
    const auto* f = e.report().first(FindingKind::kLeaderBypass);
    EXPECT_EQ(f->rank, 1);
    EXPECT_EQ(f->peer, 3);
  }
}

TEST(VerifyTopology, HierarchicalCollectivesRouteClean) {
  // The shipped two-level schedules must satisfy their own invariant.
  World world(4);
  world.enable_verify();
  world.set_topology(2);
  world.run([](Comm& comm) {
    std::vector<double> data(8, static_cast<double>(comm.rank() + 1));
    std::vector<std::size_t> sizes(4, 2);
    auto mine = comm.reduce_scatter_hier(data, sizes);
    ASSERT_EQ(mine.size(), 2u);
    EXPECT_DOUBLE_EQ(mine[0], 1.0 + 2.0 + 3.0 + 4.0);
  });
}

// ---------------------------------------------------------------------------
// Clean runs: no false positives
// ---------------------------------------------------------------------------

TEST(VerifyClean, CollectiveMixRunsClean) {
  World world(4);
  world.enable_verify();
  world.run([](Comm& comm) {
    std::vector<double> x(8, static_cast<double>(comm.rank()));
    auto summed = comm.all_gather(comm.reduce_scatter_equal(x));
    auto gathered = comm.all_gather(x);
    comm.barrier();
    std::vector<double> b(4, 0.0);
    if (comm.rank() == 2) b.assign(4, 9.0);
    comm.bcast(b, /*root=*/2);
    EXPECT_DOUBLE_EQ(b[0], 9.0);
    auto r = comm.iall_gather(x);
    auto all = r.take();
    EXPECT_EQ(all.size(), 32u);
    EXPECT_DOUBLE_EQ(summed[0], 0.0 + 1.0 + 2.0 + 3.0);
    EXPECT_EQ(gathered.size(), 32u);
  });
}

TEST(VerifyClean, TierBalanceSumsOnlyTheJobsRange) {
  // A job's end-of-job ledger balance, inter-node tier included, sums its
  // own ranks: a message another range's job has sent and not yet received
  // is no imbalance of this job.
  World world(8);
  world.enable_verify();
  world.set_topology(2);
  std::atomic<int> stage{0};
  const auto wait_for = [&stage](int s) {
    while (stage.load() < s) std::this_thread::yield();
  };
  comm::RangeJob other = world.launch_ranks(4, 8, [&](Comm& comm) {
    if (comm.rank() == 0) {
      wait_for(1);  // after `job`'s launch-time snapshot
      comm.send(2, /*tag=*/0, std::vector<double>(3, 1.0));  // node 2 -> 3
      stage = 2;
    } else if (comm.rank() == 2) {
      wait_for(3);  // after `job`'s end-of-job check
      EXPECT_EQ(comm.recv(0, /*tag=*/0).size(), 3u);
    }
  });
  comm::RangeJob job = world.launch_ranks(0, 4, [&](Comm& comm) {
    wait_for(2);
    if (comm.rank() == 0) comm.send(2, /*tag=*/0, std::vector<double>{1.0});
    if (comm.rank() == 2) EXPECT_EQ(comm.recv(0, /*tag=*/0).size(), 1u);
  });
  stage = 1;
  EXPECT_NO_THROW(world.join(job));
  stage = 3;
  EXPECT_NO_THROW(world.join(other));
}

TEST(VerifyClean, SubCommunicatorsRunClean) {
  World world(4);
  world.enable_verify();
  world.run([](Comm& comm) {
    Comm half = comm.split(comm.rank() % 2, comm.rank());
    std::vector<double> x(2, static_cast<double>(comm.rank()));
    auto all = half.all_gather(x);
    EXPECT_EQ(all.size(), 4u);
    half.barrier();
  });
}

TEST(VerifyClean, SyrkRequestWithVerify) {
  core::Session session(6);
  Matrix a = random_matrix(48, 16, /*seed=*/3);
  const Matrix ref = [&] {
    Matrix c(48, 48);
    for (std::size_t i = 0; i < 48; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double s = 0;
        for (std::size_t k = 0; k < 16; ++k) s += a(i, k) * a(j, k);
        c(i, j) = s;
      }
    }
    return c;
  }();
  auto check = [&](const core::SyrkRun& run) {
    for (std::size_t i = 0; i < 48; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_NEAR(run.c(i, j), ref(i, j), 1e-9);
      }
    }
  };
  check(core::syrk(session, core::SyrkRequest(a).with_verify()));
  check(core::syrk(session, core::SyrkRequest(a).use_1d().with_verify()));
  check(core::syrk(session, core::SyrkRequest(a).use_2d(2).with_verify()));
  EXPECT_TRUE(session.world().verifying());
}

TEST(VerifyClean, TopologyAndPipelineRequestsRunClean) {
  core::Session session(6);
  Matrix a = random_matrix(36, 12, /*seed=*/5);
  auto base = core::syrk(session, core::SyrkRequest(a).use_1d());
  auto topo = core::syrk(session, core::SyrkRequest(a)
                                      .use_1d()
                                      .with_topology(3)
                                      .with_reduce(core::ReduceKind::kHierarchical)
                                      .with_verify());
  auto piped = core::syrk(
      session, core::SyrkRequest(a).use_1d().with_pipeline(2).with_verify());
  for (std::size_t i = 0; i < 36; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(topo.c(i, j), base.c(i, j), 1e-12);
      EXPECT_DOUBLE_EQ(piped.c(i, j), base.c(i, j));
    }
  }
}

TEST(VerifyClean, EnvVariableEnablesVerification) {
  ASSERT_EQ(setenv("PARSYRK_VERIFY", "1", /*overwrite=*/1), 0);
  World world(2);
  EXPECT_TRUE(world.verifying());
  ASSERT_EQ(unsetenv("PARSYRK_VERIFY"), 0);
  World flat(2);
  EXPECT_FALSE(flat.verifying());
}

// ---------------------------------------------------------------------------
// Offline lint engine (the trace_lint tool's core)
// ---------------------------------------------------------------------------

verify::LintEvent lint_event(int rank, int peer, bool sent,
                             std::uint64_t words, const char* phase) {
  verify::LintEvent e;
  e.rank = rank;
  e.peer = peer;
  e.sent = sent;
  e.kind = 0;
  e.kind_name = "point-to-point";
  e.words = words;
  e.phase = phase;
  return e;
}

TEST(VerifyLint, BalancedTraceIsClean) {
  verify::LintInput in;
  in.ranks = 2;
  in.events = {lint_event(0, 1, true, 10, "reduce_C"),
               lint_event(1, 0, false, 10, "reduce_C")};
  EXPECT_TRUE(verify::lint_trace(in).empty());
}

TEST(VerifyLint, UnmatchedSendFlagged) {
  verify::LintInput in;
  in.ranks = 2;
  in.events = {lint_event(0, 1, true, 10, "reduce_C")};
  const auto report = verify::lint_trace(in);
  ASSERT_TRUE(report.has(FindingKind::kTraceImbalance)) << report.to_string();
  const auto* f = report.first(FindingKind::kTraceImbalance);
  EXPECT_EQ(f->rank, 0);
  EXPECT_EQ(f->peer, 1);
}

TEST(VerifyLint, WordCountMismatchFlagged) {
  verify::LintInput in;
  in.ranks = 2;
  in.events = {lint_event(0, 1, true, 10, "gather_A"),
               lint_event(1, 0, false, 8, "gather_A")};
  EXPECT_TRUE(verify::lint_trace(in).has(FindingKind::kTraceImbalance));
}

TEST(VerifyLint, DroppedEventsCannotCertify) {
  verify::LintInput in;
  in.ranks = 2;
  in.dropped = true;
  const auto report = verify::lint_trace(in);
  ASSERT_TRUE(report.has(FindingKind::kTraceImbalance)) << report.to_string();
}

TEST(VerifyLint, TierBalanceUsesTopology) {
  // Sender logs the transfer as crossing nodes, receiver as intra-node:
  // per-pair flow balances, but the inter-node tier totals cannot.
  verify::LintInput in;
  in.ranks = 4;
  in.ranks_per_node = 2;
  // (0 -> 3) is inter-node; both sides agree, so this lints clean.
  in.events = {lint_event(0, 3, true, 6, "reduce_C"),
               lint_event(3, 0, false, 6, "reduce_C")};
  EXPECT_TRUE(verify::lint_trace(in).empty());
  // A receiver that books the words against a different peer breaks the
  // pair flows even though global totals match.
  in.events = {lint_event(0, 3, true, 6, "reduce_C"),
               lint_event(3, 2, false, 6, "reduce_C")};
  EXPECT_FALSE(verify::lint_trace(in).empty());
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

TEST(VerifyReportFormat, FindingRendersKindRankAndDetail) {
  verify::Finding f;
  f.kind = FindingKind::kMessageLeak;
  f.rank = 3;
  f.peer = 1;
  f.job = 7;
  f.detail = "9 words, tag 4";
  const std::string s = f.to_string();
  EXPECT_NE(s.find("message-leak"), std::string::npos) << s;
  EXPECT_NE(s.find("rank 3"), std::string::npos) << s;
  EXPECT_NE(s.find("9 words"), std::string::npos) << s;
}

TEST(VerifyReportFormat, ErrorCarriesReport) {
  VerifyReport report;
  report.findings.push_back({FindingKind::kStrandedWait, 0, 1, 0, 2, "x"});
  VerifyError err(report);
  EXPECT_TRUE(err.report().has(FindingKind::kStrandedWait));
  EXPECT_NE(std::string(err.what()).find("stranded-wait"), std::string::npos);
}

}  // namespace
}  // namespace parsyrk

// Unit tests for the per-message trace layer: event recording (kinds,
// phases, ordinals), ledger/trace consistency, zero-cost-when-off, ring
// overflow accounting, and both exporters (Chrome tracing JSON, binary
// golden format).
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/trace.hpp"
#include "simmpi/worker_pool.hpp"
#include "support/check.hpp"
#include "trace/export.hpp"

namespace parsyrk {
namespace {

using comm::JobTrace;
using comm::OpKind;
using comm::Dir;
using comm::TraceEvent;

/// Runs one traced job on a private world and returns its drained trace.
template <typename Body>
JobTrace traced_job(int ranks, Body body,
                    std::size_t capacity = comm::TraceSink::kDefaultCapacity) {
  comm::World world(ranks);
  world.enable_tracing(capacity);
  world.run(body);
  return world.trace_sink()->drain(/*poisoned=*/false);
}

TEST(Trace, OffByDefault) {
  comm::World world(4);
  EXPECT_FALSE(world.tracing());
  EXPECT_EQ(world.trace_sink(), nullptr);
  world.run([](comm::Comm& comm) {
    auto all = comm.all_gather(std::vector<double>{1.0 * comm.rank()});
    ASSERT_EQ(all.size(), 4u);
  });
  EXPECT_FALSE(world.tracing());

  // Untraced requests leave SyrkRun::trace empty.
  Matrix a = random_matrix(24, 48, 1);
  core::Session session(6);
  const auto run = core::syrk(session, core::SyrkRequest(a));
  EXPECT_FALSE(run.trace.has_value());
}

TEST(Trace, TracedRequestCarriesJobTrace) {
  Matrix a = random_matrix(24, 48, 1);
  core::Session session(6);
  const auto run = core::syrk(session, core::SyrkRequest(a).with_trace());
  ASSERT_TRUE(run.trace.has_value());
  EXPECT_EQ(run.trace->ranks, 6u);
  EXPECT_EQ(run.trace->dropped, 0u);
  EXPECT_FALSE(run.trace->poisoned);
  EXPECT_FALSE(run.trace->events.empty());
}

TEST(Trace, PointToPointEventsAndOrdinals) {
  const JobTrace t = traced_job(2, [](comm::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/7, std::vector<double>{1.0, 2.0, 3.0});
      comm.send(1, /*tag=*/8, std::vector<double>{4.0});
    } else {
      auto a = comm.recv(0, 7);
      auto b = comm.recv(0, 8);
      ASSERT_EQ(a.size(), 3u);
      ASSERT_EQ(b.size(), 1u);
    }
  });
  ASSERT_EQ(t.events.size(), 4u);  // two messages, two endpoints each
  // Events are merged in (rank, ordinal) order.
  const TraceEvent& s0 = t.events[0];
  EXPECT_EQ(s0.rank, 0);
  EXPECT_EQ(s0.peer, 1);
  EXPECT_EQ(s0.dir, Dir::kSend);
  EXPECT_EQ(s0.kind, OpKind::kPointToPoint);
  EXPECT_EQ(s0.words, 3u);
  EXPECT_EQ(s0.ordinal, 0u);
  EXPECT_EQ(t.events[1].words, 1u);
  EXPECT_EQ(t.events[1].ordinal, 1u);
  const TraceEvent& r0 = t.events[2];
  EXPECT_EQ(r0.rank, 1);
  EXPECT_EQ(r0.peer, 0);
  EXPECT_EQ(r0.dir, Dir::kRecv);
  EXPECT_EQ(r0.words, 3u);
  EXPECT_EQ(r0.ordinal, 0u);
}

TEST(Trace, CollectiveKindOutermostWins) {
  // all_reduce is composed of reduce_scatter + all_gather internally; every
  // traced message must still carry the outermost kind.
  const JobTrace t = traced_job(4, [](comm::Comm& comm) {
    auto sum = comm.all_reduce(std::vector<double>(8, 1.0));
    ASSERT_EQ(sum.size(), 8u);
  });
  ASSERT_FALSE(t.events.empty());
  for (const TraceEvent& e : t.events) {
    EXPECT_EQ(e.kind, OpKind::kAllReduce) << op_kind_name(e.kind);
  }

  const JobTrace g = traced_job(4, [](comm::Comm& comm) {
    auto all = comm.all_gather(std::vector<double>{1.0});
    ASSERT_EQ(all.size(), 4u);
  });
  for (const TraceEvent& e : g.events) EXPECT_EQ(e.kind, OpKind::kAllGather);
}

TEST(Trace, PhaseAttributionIsCanonical) {
  const JobTrace t = traced_job(4, [](comm::Comm& comm) {
    comm.set_phase("zeta");
    comm.all_gather(std::vector<double>{1.0});
    comm.set_phase("alpha");
    comm.all_gather(std::vector<double>{2.0});
  });
  // The phase table is sorted regardless of interning order.
  ASSERT_EQ(t.phases, (std::vector<std::string>{"alpha", "zeta"}));
  std::size_t in_alpha = 0, in_zeta = 0;
  for (const TraceEvent& e : t.events) {
    if (t.phase_name(e) == "alpha") ++in_alpha;
    if (t.phase_name(e) == "zeta") ++in_zeta;
  }
  EXPECT_EQ(in_alpha, in_zeta);
  EXPECT_EQ(in_alpha + in_zeta, t.events.size());
}

TEST(Trace, RollupMatchesLedger) {
  comm::World world(6);
  world.enable_tracing();
  const auto before = world.ledger().snapshot();
  world.run([](comm::Comm& comm) {
    comm.set_phase("gather");
    comm.all_gather(std::vector<double>(4, 1.0));
    comm.set_phase("reduce");
    comm.reduce_scatter_equal(std::vector<double>(12, 1.0));
  });
  const JobTrace t = world.trace_sink()->drain(false);
  const trace::Rollup roll(t);
  EXPECT_TRUE(roll.matches(world.ledger().per_rank_since(before)));
  const comm::CostSummary ledger = world.ledger().summary_since(before);
  EXPECT_EQ(roll.summary().total, ledger.total);
  EXPECT_EQ(roll.summary().max, ledger.max);
  const comm::CostSummary gather = world.ledger().summary_since(before, "gather");
  EXPECT_EQ(roll.summary("gather").total, gather.total);
}

TEST(Trace, RollupDetectsTampering) {
  JobTrace t = traced_job(4, [](comm::Comm& comm) {
    comm.all_gather(std::vector<double>(4, 1.0));
  });
  comm::World world(4);
  const auto before = world.ledger().snapshot();
  world.run([](comm::Comm& comm) {
    comm.all_gather(std::vector<double>(4, 1.0));
  });
  const auto per_rank = world.ledger().per_rank_since(before);
  EXPECT_TRUE(trace::Rollup(t).matches(per_rank));
  t.events.front().words += 1;
  EXPECT_FALSE(trace::Rollup(t).matches(per_rank));
}

TEST(Trace, OverflowDropsAndCounts) {
  // Ring capacity 4 per rank; each of the 2 ranks records 16 endpoints.
  const JobTrace t = traced_job(
      2,
      [](comm::Comm& comm) {
        for (int i = 0; i < 16; ++i) {
          if (comm.rank() == 0) {
            comm.send(1, i, std::vector<double>{1.0});
          } else {
            comm.recv(0, i);
          }
        }
      },
      /*capacity=*/4);
  EXPECT_GT(t.dropped, 0u);
  EXPECT_EQ(t.events.size() + t.dropped, 32u);
  // A fresh job epoch clears the drop accounting.
  const JobTrace clean = traced_job(2, [](comm::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>{1.0});
    } else {
      comm.recv(0, 0);
    }
  });
  EXPECT_EQ(clean.dropped, 0u);
}

TEST(Trace, SplitSetupTrafficIsNotTraced) {
  // Comm::split is ledger-muted (setup traffic); the trace must mute it the
  // same way or Rollup::matches could never hold.
  const JobTrace t = traced_job(4, [](comm::Comm& comm) {
    comm::Comm sub = comm.split(comm.rank() % 2, comm.rank());
    (void)sub;
  });
  EXPECT_TRUE(t.events.empty());
}

// ---- Chrome tracing JSON ----

/// Minimal JSON syntax checker (objects/arrays/strings/numbers/keywords),
/// enough to prove the exporter emits a well-formed document without
/// depending on a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Trace, ChromeJsonIsWellFormed) {
  const JobTrace t = traced_job(4, [](comm::Comm& comm) {
    comm.set_phase("gather\"quoted\\phase");  // must be escaped in JSON
    comm.all_gather(std::vector<double>(3, 1.0));
  });
  const std::string doc = trace::to_chrome_json(t);
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("thread_name"), std::string::npos);
}

TEST(Trace, ChromeJsonEmptyTrace) {
  JobTrace t;
  t.ranks = 2;
  const std::string doc = trace::to_chrome_json(t);
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
}

// ---- Binary golden format ----

TEST(Trace, BinaryRoundTrip) {
  const JobTrace t = traced_job(6, [](comm::Comm& comm) {
    comm.set_phase("gather_A");
    comm.all_gather(std::vector<double>(4, 1.0));
    comm.set_phase("reduce_C");
    comm.reduce_scatter_equal(std::vector<double>(12, 1.0));
  });
  const std::string bytes = trace::to_binary(t);
  const JobTrace back = trace::from_binary(bytes);
  EXPECT_EQ(back.ranks, t.ranks);
  EXPECT_EQ(back.poisoned, t.poisoned);
  EXPECT_EQ(back.dropped, t.dropped);
  EXPECT_EQ(back.phases, t.phases);
  EXPECT_EQ(back.events, t.events);
  // The job id is deliberately not serialized (warm-vs-fresh comparability).
  EXPECT_EQ(back.job_id, 0u);
}

TEST(Trace, BinaryRejectsMalformedInput) {
  EXPECT_THROW(trace::from_binary(""), InvalidArgument);
  EXPECT_THROW(trace::from_binary("not a trace at all......."),
               InvalidArgument);
  const JobTrace t = traced_job(2, [](comm::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>{1.0});
    } else {
      comm.recv(0, 0);
    }
  });
  std::string bytes = trace::to_binary(t);
  EXPECT_THROW(trace::from_binary(bytes.substr(0, bytes.size() - 3)),
               InvalidArgument);
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_THROW(trace::from_binary(wrong_magic), InvalidArgument);
}

TEST(Trace, WarmWorldJobsReplayIdentically) {
  // Ordinals, phases, and tags all reset per job, so the Nth traced job on
  // a warm world serializes to exactly the bytes of the first.
  comm::WorkerPool pool;
  comm::World world(4, pool);
  world.enable_tracing();
  auto body = [](comm::Comm& comm) {
    comm.set_phase("work");
    comm.all_gather(std::vector<double>(2, 1.0 * comm.rank()));
  };
  world.run(body);
  const JobTrace first = world.trace_sink()->drain(false);
  for (int j = 0; j < 3; ++j) world.run(body);
  const JobTrace last = world.trace_sink()->drain(false);
  EXPECT_EQ(first.job_id, 1u);
  EXPECT_EQ(last.job_id, 4u);  // each job begins its ranks afresh
  EXPECT_EQ(trace::to_binary(first), trace::to_binary(last));
}

TEST(Trace, EnableTracingIsIdempotent) {
  comm::World world(2);
  world.enable_tracing();
  comm::TraceSink* sink = world.trace_sink();
  world.enable_tracing();  // keeps the existing sink
  EXPECT_EQ(world.trace_sink(), sink);
  world.disable_tracing();
  EXPECT_FALSE(world.tracing());
}

}  // namespace
}  // namespace parsyrk

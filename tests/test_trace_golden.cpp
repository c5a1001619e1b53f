// Golden-trace regression tests: the exact per-message schedule of the
// 1D/2D/3D algorithms on small fixed problems, committed as binary traces
// under tests/golden/. A schedule change (different message sizes, order,
// phases, or collective composition) shows up as a byte diff against the
// golden file — intentional changes regenerate with:
//
//   PARSYRK_REGEN_GOLDEN=1 ./build/tests/test_trace_golden
//
// The second half asserts warm-equals-fresh: a warm session (or a warm
// world running jobs back to back) that already ran other jobs must produce
// byte-identical traces to a fresh world, which is what makes the committed
// goldens meaningful for both execution models.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "matrix/random.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/worker_pool.hpp"
#include "trace/export.hpp"

namespace parsyrk {
namespace {

struct GoldenConfig {
  const char* name;   // golden file stem
  int session_ranks;  // fixed so fresh and warm worlds agree on rank count
  std::size_t n1, n2;
  std::uint64_t seed;
  // Applies the algorithm selection to a request.
  void (*select)(core::SyrkRequest&);
};

const GoldenConfig kConfigs[] = {
    {"trace_1d", 6, 24, 48, 11,
     [](core::SyrkRequest& r) { r.use_1d(); }},
    {"trace_2d", 6, 16, 8, 12,
     [](core::SyrkRequest& r) { r.use_2d(2); }},
    {"trace_3d", 12, 24, 24, 13,
     [](core::SyrkRequest& r) { r.use_3d(2, 2); }},
};

// Without this gtest prints the config's raw bytes, pointers included, so
// the listed test names would change from run to run under ASLR.
void PrintTo(const GoldenConfig& cfg, std::ostream* os) { *os << cfg.name; }

std::string golden_path(const GoldenConfig& cfg) {
  return std::string(PARSYRK_GOLDEN_DIR) + "/" + cfg.name + ".bin";
}

/// One traced run of the config's problem on the given session.
std::string traced_bytes(core::Session& session, const GoldenConfig& cfg,
                         const Matrix& a) {
  core::SyrkRequest req(a);
  cfg.select(req);
  req.with_trace();
  const auto run = core::syrk(session, req);
  EXPECT_TRUE(run.trace.has_value()) << cfg.name;
  return trace::to_binary(*run.trace);
}

std::string traced_bytes_fresh(const GoldenConfig& cfg) {
  Matrix a = random_matrix(cfg.n1, cfg.n2, cfg.seed);
  core::Session session(cfg.session_ranks);
  return traced_bytes(session, cfg, a);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class TraceGolden : public ::testing::TestWithParam<GoldenConfig> {};

TEST_P(TraceGolden, MatchesCommittedGolden) {
  const GoldenConfig& cfg = GetParam();
  const std::string bytes = traced_bytes_fresh(cfg);
  ASSERT_FALSE(bytes.empty());
  const std::string path = golden_path(cfg);
  if (std::getenv("PARSYRK_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << bytes;
    GTEST_SKIP() << "regenerated " << path << " (" << bytes.size()
                 << " bytes)";
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden " << path
      << "; regenerate with PARSYRK_REGEN_GOLDEN=1";
  EXPECT_EQ(bytes, golden)
      << cfg.name << ": message schedule diverged from the committed trace; "
      << "if intentional, regenerate with PARSYRK_REGEN_GOLDEN=1";
  // The golden parses back to a sane trace (guards against committing a
  // truncated or corrupted file).
  const comm::JobTrace parsed = trace::from_binary(golden);
  EXPECT_EQ(parsed.ranks, static_cast<std::uint32_t>(cfg.session_ranks));
  EXPECT_FALSE(parsed.poisoned);
  EXPECT_EQ(parsed.dropped, 0u);
  EXPECT_FALSE(parsed.events.empty());
}

TEST_P(TraceGolden, WarmSessionMatchesFreshWorld) {
  const GoldenConfig& cfg = GetParam();
  const std::string fresh = traced_bytes_fresh(cfg);

  // Warm session: other work first (planner jobs of a different shape, both
  // traced and untraced), then the config's problem. Per-job ordinal/tag
  // resets must make the trace byte-identical to the fresh run's.
  Matrix a = random_matrix(cfg.n1, cfg.n2, cfg.seed);
  Matrix other = random_matrix(12, 36, cfg.seed + 100);
  comm::WorkerPool pool;
  core::Session session(cfg.session_ranks, pool);
  (void)core::syrk(session, core::SyrkRequest(other).with_trace());
  (void)core::syrk(session, core::SyrkRequest(other));
  const std::uint64_t warm_threads = pool.threads_created();
  const std::string warm = traced_bytes(session, cfg, a);
  EXPECT_EQ(warm, fresh) << cfg.name;
  EXPECT_EQ(pool.threads_created(), warm_threads);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, TraceGolden, ::testing::ValuesIn(kConfigs),
    [](const ::testing::TestParamInfo<GoldenConfig>& info) {
      return std::string(info.param.name);
    });

TEST(TraceGoldenQueue, RepeatedJobsDrainIdenticalTraces) {
  // The job boundary: the same SPMD body run twice on one warm world
  // drains two byte-identical traces, each equal to a fresh world's.
  auto body = [](comm::Comm& comm) {
    comm.set_phase("gather");
    comm.all_gather(std::vector<double>(3, 1.0 * comm.rank()));
    comm.set_phase("reduce");
    comm.reduce_scatter_equal(std::vector<double>(8, 2.0));
  };

  comm::World fresh_world(4);
  fresh_world.enable_tracing();
  fresh_world.run(body);
  const std::string fresh =
      trace::to_binary(fresh_world.trace_sink()->drain(false));

  comm::World world(4);
  world.enable_tracing();
  std::vector<comm::JobTrace> traces;
  for (int job = 0; job < 2; ++job) {
    world.run(body);
    traces.push_back(world.trace_sink()->drain(false));
  }
  ASSERT_EQ(traces.size(), 2u);
  for (const auto& t : traces) EXPECT_EQ(trace::to_binary(t), fresh);
  EXPECT_EQ(traces[0].job_id + 1, traces[1].job_id);
}

}  // namespace
}  // namespace parsyrk

// Public API: communication-optimal parallel SYRK (paper Algorithms 1–3).
//
// Quickstart (see core/session.hpp for Session and SyrkRequest):
//   parsyrk::core::Session session(12);                  // P = 12 warm ranks
//   parsyrk::Matrix a = parsyrk::random_matrix(180, 64, /*seed=*/1);
//   auto run = parsyrk::core::syrk(session, parsyrk::core::SyrkRequest(a));
//   auto words = run.total.critical_path_words();
//
// The Session owns a World whose workers are leased once from the shared
// pool, so issuing many requests reuses the same parked threads. Requests
// default to the §5.4 planner; explicit algorithm/grid, root-held input,
// and memory-aware planning are selected on the request.
//
// The returned matrix is the full symmetric C = A·Aᵀ, assembled from the
// distributed owners for convenience and validation. Assembly goes through
// shared memory and is NOT counted as communication: 2D owners compute
// their blocks in place into the result (C has no reduction there), while
// 1D and 3D ranks write each reduce-scattered range into it as it arrives
// — row copies plus the tiled transpose for the off-diagonal blocks, the
// packed-triangle assembly for the diagonal one. The run (and the world's
// ledger) holds the per-rank measured volumes, attributable by phase
// ("gather_A", "reduce_C", "scatter_A").
//
// The pre-1.x per-algorithm entry points (syrk_1d/2d/3d/_from_root,
// syrk_auto) are gone; docs/MIGRATION.md maps each one to its
// Session/SyrkRequest spelling. Callers that drive raw Worlds directly
// execute an explicit Plan as World::run over internal::run_syrk_plan_rank,
// with internal::ExecBuffers holding the execution-size operands.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>

#include "bounds/syrk_bounds.hpp"
#include "core/syrk_internal.hpp"
#include "matrix/matrix.hpp"
#include "simmpi/comm.hpp"

namespace parsyrk::core {

using internal::ExchangeKind;
using internal::ReduceKind;

/// Execution knobs shared by every SYRK entry point.
struct SyrkOptions {
  /// Reduce-Scatter realization for the 1D algorithm and for the 3D
  /// algorithm's reduce across slices: pairwise exchange (latency p−1), the
  /// §6 Bruck adaptation (bandwidth- AND latency-optimal), or hierarchical.
  /// The 2D algorithm has no reduction and ignores it, and the root-scatter
  /// ingestion path always reduces pairwise.
  ReduceKind reduce = ReduceKind::kPairwise;
  /// All-to-All realization for the 2D algorithm and for every slice of the
  /// 3D one (§6 trade-off). The 1D algorithm gathers nothing and ignores it.
  ExchangeKind exchange = ExchangeKind::kPairwise;
  /// When set (1D only): A starts on this rank and is scattered first,
  /// measured under ledger phase "scatter_A". Theorem 1 assumes one
  /// *distributed* copy of A; this makes the extra ingestion term —
  /// n1·n2·(1−1/P) words out of the root — visible and attributable.
  std::optional<int> root;
  /// Pipelined chunked execution (0 = off, the historical blocking path).
  /// When >= 1, the k-phase collective — the packed-triangle Reduce-Scatter
  /// (1D), the All-to-All of A (2D), the per-slice Reduce-Scatter of C
  /// (3D) — runs as this many segments driven by nonblocking handles, so
  /// segment s's local work overlaps segment s+1's communication. Word
  /// volume and every entry's accumulation order are identical to blocking
  /// for ANY chunk count (results match bitwise); message count scales with
  /// the chunk count; chunks=1 replays the blocking schedule bitwise
  /// (ledger AND trace). Requires pairwise collectives and no root
  /// ingestion. Clamped to the available segment count.
  int pipeline_chunks = 0;
  /// Two-level topology: consecutive ranks are grouped into nodes of this
  /// many ranks each (1 = flat machine, the historical default). Intra-node
  /// words are ledgered on the cheap (α0,β0) tier, inter-node words on the
  /// scarce (α1,β1) tier, and hierarchical collectives become available.
  int ranks_per_node = 1;
};

/// Which collective realization a plan selects for its dominant exchange.
/// kPairwise is the paper's baseline (bandwidth-optimal, latency P−1);
/// kBruck and kButterfly are the §6 latency-efficient variants; and
/// kHierarchical is the two-level node-leader scheme that minimizes
/// inter-node words on a nodes × ranks-per-node topology.
enum class CollectiveStrategy { kPairwise, kBruck, kButterfly, kHierarchical };

const char* strategy_name(CollectiveStrategy s);

/// Which algorithm a plan selects.
enum class Algorithm { kOneD, kTwoD, kThreeD };

const char* algorithm_name(Algorithm a);

/// An executable algorithm + grid choice for a given problem. Selected by
/// the cost-model-driven enumerator (core/planner.hpp), which scores every
/// candidate grid with the closed-form §5 costs and may pad n1 up to the
/// next multiple of c² or fold a logical grid onto fewer physical ranks.
struct Plan {
  Algorithm algorithm = Algorithm::kOneD;
  bounds::Regime regime = bounds::Regime::kOneD;  // bound case at `procs`
  std::uint64_t procs = 1;  // physical ranks the plan occupies (<= max_procs)
  std::uint64_t c = 0;      // triangle-distribution prime (2D/3D)
  std::uint64_t p1 = 1;     // = c(c+1) for 2D/3D
  std::uint64_t p2 = 1;     // slice count (3D), or procs (1D)
  /// Execution row count when the planner padded A with zero rows so that
  /// c² | n1 (0 = no padding). The result is truncated back to n1×n1.
  std::uint64_t padded_n1 = 0;
  /// Logical grid size when the plan folds p1·p2 > procs logical ranks onto
  /// `procs` physical ranks round-robin (0 = unfolded). Folding lets the
  /// planner keep the communication-optimal grid at awkward physical P.
  std::uint64_t logical = 0;
  /// Collective realization the planner picked for the dominant exchange
  /// (pairwise unless a two-level topology made hierarchical cheaper).
  CollectiveStrategy strategy = CollectiveStrategy::kPairwise;

  /// Ranks the SPMD body runs on (the world size the plan needs).
  std::uint64_t logical_ranks() const { return logical != 0 ? logical : procs; }
  bool folded() const { return logical != 0; }
  /// Logical ranks co-resident on the busiest physical rank.
  std::uint64_t fold_factor() const {
    return logical != 0 ? (logical + procs - 1) / procs : 1;
  }
  /// The row count the algorithm actually runs on.
  std::uint64_t exec_n1(std::uint64_t n1) const {
    return padded_n1 != 0 ? padded_n1 : n1;
  }
};

/// Chooses algorithm and grid for up to `max_procs` physical ranks by
/// enumerating every candidate plan (1D at P; 2D at each prime pronic; 3D
/// over the (c, p2) lattice, including padded and folded variants) and
/// picking the cheapest under the α-β-γ cost model — see core/planner.hpp
/// for the full search, and enumerate_syrk_plans() for the rejected
/// candidates. `n1_divisibility` — when true (default), grids with
/// n1 % c² != 0 are only considered (with zero-padding) when no exactly
/// divisible grid exists; when false, padded grids always compete.
Plan plan_syrk(std::uint64_t n1, std::uint64_t n2, std::uint64_t max_procs,
               bool n1_divisibility = true);

std::ostream& operator<<(std::ostream& os, const Plan& plan);

/// Result of a planned run.
struct SyrkRun {
  Plan plan;
  Matrix c;                        // full symmetric result
  comm::CostSummary total;         // whole-run communication
  comm::CostSummary gather_a;      // "gather_A" phase
  comm::CostSummary reduce_c;      // "reduce_C" phase
  comm::CostSummary scatter_a;     // "scatter_A" ingestion (root requests)
  bounds::SyrkBound bound;         // Theorem 1 at the plan's processor count
  /// Two-level-topology runs only (nodes >= 2): inter-node traffic alone,
  /// folded to per-node buckets (ranks = node count; max = busiest node).
  /// The BoundAuditor audits this against Theorem 1 at P = nodes.
  comm::CostSummary total_inter;
  /// Node count of the run's topology (0 = flat machine, no inter summary).
  int nodes = 0;
  /// Per-message event trace of this request's job, present when the
  /// request opted in via with_trace(). Feed to trace::write_chrome_json /
  /// write_binary / Rollup / BoundAuditor.
  std::optional<comm::JobTrace> trace;
};

namespace internal {

/// The one per-rank SYRK body: Alg. 3 on the plan's p1 × p2 grid, with
/// Alg. 1 (p1 = 1) and Alg. 2 (p2 = 1) as its corners (see
/// core/syrk_internal.hpp), on one operand set — A for SYRK, A and B for
/// SYR2K. `comm` has exactly p1·p2 ranks (a request's own rank range,
/// launched by internal::launch_request, or an active-ranks
/// sub-communicator); each rank assembles its share of the result into
/// `c_full` via shared memory (free). The operands and `c_full` must already be at the plan's
/// execution size (plan.exec_n1 rows); padding/truncation happens in the
/// caller (ExecBuffers). `c_full` may arrive uninitialised: the ranks
/// together write every entry of it.
void run_syrk_plan_rank(comm::Comm& comm, const Operands& ops,
                        const Plan& plan, const SyrkOptions& opts,
                        Matrix& c_full);

/// Rejects option combinations `plan` cannot run on an n1×n2 A, each with
/// a message that names both conflicting options. The one check behind the
/// resolve step (internal::resolve_request) of core::syrk and the
/// service's admission.
void check_options(const Plan& plan, std::uint64_t n1, std::uint64_t n2,
                   const SyrkOptions& opts);

/// Copies `a` into the top rows of a `rows`-row zero matrix (planner
/// padding: the zero rows contribute nothing to A·Aᵀ).
Matrix pad_rows(const Matrix& a, std::uint64_t rows);

/// The execution-size operands of one request, the single place where
/// every entry point pads, allocates, and truncates: A padded with zero
/// rows to plan.exec_n1 when the plan pads (otherwise the caller's A,
/// uncopied — it must outlive the buffers), and the exec_n1² result the
/// ranks assemble into. The result is allocated WITHOUT a zero-fill: the
/// ranks write each of its entries once (1D/3D owners assemble their
/// reduced ranges, 2D owners compute their own blocks in place with
/// Beta::kZero, which never reads C), so the pages are first touched in
/// parallel by the ranks that own them.
class ExecBuffers {
 public:
  ExecBuffers() = default;
  ExecBuffers(const Matrix& a, const Plan& plan);

  /// The input at execution size.
  ConstMatrixView a() const { return padded_ ? a_pad_.view() : a_->view(); }
  /// The result every rank assembles into (exec_n1 × exec_n1).
  Matrix& c() { return c_; }
  /// Moves the result out, truncated to the caller's n1×n1 corner. Call
  /// once, after every rank has finished.
  Matrix take_result();

 private:
  const Matrix* a_ = nullptr;
  bool padded_ = false;
  Matrix a_pad_;
  Matrix c_;
};

}  // namespace internal

}  // namespace parsyrk::core

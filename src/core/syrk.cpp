#include "core/syrk.hpp"

#include <algorithm>
#include <optional>
#include <ostream>
#include <span>
#include <utility>

#include "core/planner.hpp"
#include "core/syrk_internal.hpp"
#include "distribution/block1d.hpp"
#include "matrix/kernels.hpp"
#include "support/check.hpp"

namespace parsyrk::core {

namespace internal {
namespace {

/// Ingestion from a root (opts.root, p1 = 1 only): the root packs and
/// scatters the 1D column blocks. Only the root reads the shared input;
/// every other rank works purely from its received block.
Matrix scatter_column_blocks(comm::Comm& comm, const ConstMatrixView& a,
                             int root) {
  const std::size_t n1 = a.rows();
  const std::size_t n2 = a.cols();
  const int p = comm.size();
  comm.set_phase(kPhaseScatterA);
  std::vector<std::vector<double>> parts;
  if (comm.rank() == root) {
    parts.resize(p);
    for (int q = 0; q < p; ++q) {
      parts[q] = flat_copy(a.block(0, dist::chunk_begin(n2, p, q), n1,
                                   dist::chunk_size(n2, p, q)));
    }
  }
  const auto mine = comm.scatter(parts, root);
  const std::size_t cw = dist::chunk_size(n2, p, comm.rank());
  PARSYRK_CHECK(mine.size() == n1 * cw);
  Matrix local(n1, cw);
  flat_assign(local.view(), 0, mine);
  return local;
}

/// Alg. 2's owners with nothing to reduce (p2 = 1): every owned block is
/// computed straight into its place in `c` and mirrored into the upper
/// triangle. `c` arrives uninitialised (fresh pages, or a reused block
/// holding a dropped matrix's entries); the first product into each block
/// is Beta::kZero, which never reads it, so page faults and the single
/// write of each entry run in parallel on the owning ranks.
void compute_in_place(const OwnedLayout& layout, const RowSource& rows,
                      const MatrixView& c) {
  const std::size_t nb = layout.nb;
  for (const auto& [bi, bj] : layout.pairs) {
    const MatrixView cij = c.block(bi * nb, bj * nb, nb, nb);
    const Operands ri = rows(bi);
    const Operands rj = rows(bj);
    gemm_nt(ri.a, rj.b, cij, Beta::kZero);
    if (ri.count == 2) gemm_nt(ri.b, rj.a, cij);
    transpose_into(cij, c.block(bj * nb, bi * nb, nb, nb));
  }
  if (layout.diag) {
    const MatrixView cii = c.block(*layout.diag * nb, *layout.diag * nb, nb,
                                   nb);
    // The lower-only kernels write the lower triangle; the mirror writes
    // the strict upper one.
    const Operands rd = rows(*layout.diag);
    if (rd.count == 1) {
      syrk_lower(rd.a, cii, Beta::kZero);
    } else {
      syr2k_lower(rd.a, rd.b, cii, Beta::kZero);
    }
    symmetrize_from_lower(cii);
  }
}

}  // namespace

void run_syrk_plan_rank(comm::Comm& comm, const Operands& ops,
                        const Plan& plan, const SyrkOptions& opts,
                        Matrix& c_full) {
  const MatrixView c = c_full.view();
  // The grid: p1 = 1 is Alg. 1, p2 = 1 is Alg. 2.
  std::optional<dist::TriangleBlockDistribution> d;
  if (plan.algorithm != Algorithm::kOneD) d.emplace(plan.c);
  const int p1 = d ? static_cast<int>(d->num_procs()) : 1;
  int p2 = 1;
  if (plan.algorithm == Algorithm::kOneD) p2 = comm.size();
  if (plan.algorithm == Algorithm::kThreeD) p2 = static_cast<int>(plan.p2);
  PARSYRK_REQUIRE(comm.size() == p1 * p2, algorithm_name(plan.algorithm),
                  " plan needs p1·p2 = ", p1, "·", p2,
                  " ranks; communicator has ", comm.size());
  PARSYRK_REQUIRE(!opts.root || p1 == 1,
                  "from_root is only supported with the 1D algorithm");
  const std::size_t n1 = ops.a.rows();
  const std::size_t n2 = ops.a.cols();
  // Rank w sits at (k, l) = (w mod p1, w div p1): slice l runs Alg. 2 on
  // column block l of the operands (Alg. 3 line 3), row k reduce-scatters
  // the slices' partial C_k (line 5). Communicators split only when both
  // dimensions exceed one; otherwise the world is the slice or the row.
  const int k = comm.rank() % p1;
  const int l = comm.rank() / p1;
  const bool grid = p1 > 1 && p2 > 1;
  comm::Comm slice = grid ? comm.split(/*color=*/l, /*key=*/k) : comm;

  // Ingest: this slice's column block, or (from_root) the block the root
  // scatters to this rank.
  Operands mine =
      ops.columns(dist::chunk_begin(n2, p2, l), dist::chunk_size(n2, p2, l));
  Matrix scattered;
  if (opts.root) {
    scattered = scatter_column_blocks(comm, ops.a, *opts.root);
    mine = scattered.view();
  }

  // Gather (p1 > 1) and the owned blocks' layout.
  AssembledRowBlocks rb;
  OwnedLayout layout{
      .nb = n1, .pairs = {}, .diag = 0, .whole_triangle = true};
  RowSource rows = [&mine](std::uint64_t) { return mine; };
  if (d) {
    rb = syrk_2d_gather(slice, *d, mine, opts.exchange, opts.pipeline_chunks);
    const auto dk = static_cast<std::uint64_t>(k);
    layout = {.nb = n1 / d->num_block_rows(),
              .pairs = d->owned_pairs(dk),
              .diag = d->diagonal_block(dk)};
    rows = [&rb](std::uint64_t i) { return rb.rows(i); };
  }

  // Compute: straight into C when there is nothing to reduce; otherwise
  // into the owned layout as the reduce phase posts its segments.
  if (p2 == 1) {
    compute_in_place(layout, rows, c);
    return;
  }
  comm::Comm row = grid ? comm.split(/*color=*/k, /*key=*/l) : comm;
  // Root ingestion always reduces pairwise (SyrkOptions::reduce).
  reduce_scatter_owned(
      row, layout,
      [&](std::size_t i0, std::size_t i1, std::span<double> send) {
        return compute_owned(layout, rows, i0, i1, send);
      },
      opts.root ? ReduceKind::kPairwise : opts.reduce, opts.pipeline_chunks,
      c);
}

void check_options(const Plan& plan, std::uint64_t n1, std::uint64_t n2,
                   const SyrkOptions& opts) {
  // The request builders validate the first two, but the options struct is
  // an open aggregate: catch hand-assembled nonsense before it executes.
  PARSYRK_REQUIRE(opts.pipeline_chunks >= 0,
                  "pipeline_chunks must be >= 0 (0 = blocking); got ",
                  opts.pipeline_chunks);
  PARSYRK_REQUIRE(opts.ranks_per_node >= 1,
                  "ranks_per_node must be >= 1 (1 = flat); got ",
                  opts.ranks_per_node);
  if (opts.root) {
    PARSYRK_REQUIRE(plan.algorithm == Algorithm::kOneD,
                    "from_root is only supported with the 1D algorithm; the "
                    "plan is ", algorithm_name(plan.algorithm));
    PARSYRK_REQUIRE(*opts.root >= 0 &&
                        static_cast<std::uint64_t>(*opts.root) < plan.procs,
                    "bad root ", *opts.root);
  }
  if (opts.pipeline_chunks >= 1) {
    PARSYRK_REQUIRE(!opts.root,
                    "with_pipeline does not support from_root ingestion");
    PARSYRK_REQUIRE(opts.reduce == ReduceKind::kPairwise,
                    "with_pipeline supports pairwise collectives only; "
                    "with_reduce is not pairwise");
    PARSYRK_REQUIRE(opts.exchange == ExchangeKind::kPairwise,
                    "with_pipeline supports pairwise collectives only; "
                    "with_exchange is not pairwise");
  }
  PARSYRK_REQUIRE(opts.ranks_per_node == 1 || !plan.folded(),
                  "with_topology requires an unfolded plan (folded worlds "
                  "already model co-location); the plan folds ",
                  plan.logical, " logical ranks onto ", plan.procs);
  if (opts.exchange == ExchangeKind::kButterfly &&
      plan.algorithm != Algorithm::kOneD) {
    // Every slice's chunks must be even, checked before any rank exchanges.
    const std::uint64_t nb = plan.exec_n1(n1) / (plan.c * plan.c);
    const int p2 = plan.algorithm == Algorithm::kThreeD
                       ? static_cast<int>(plan.p2)
                       : 1;
    for (int l = 0; l < p2; ++l) {
      const std::uint64_t flat = nb * dist::chunk_size(n2, p2, l);
      PARSYRK_REQUIRE(flat % (plan.c + 1) == 0,
                      "butterfly exchange needs even chunks: (n1/c²)·(slice "
                      "columns) = ", flat, " divisible by c+1 = ",
                      plan.c + 1);
    }
  }
}

Matrix pad_rows(const Matrix& a, std::uint64_t rows) {
  PARSYRK_CHECK(rows >= a.rows());
  Matrix padded(rows, a.cols());  // zero rows contribute nothing to A·Aᵀ
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) padded(i, j) = a(i, j);
  }
  return padded;
}

ExecBuffers::ExecBuffers(const Matrix& a, const Plan& plan) : a_(&a) {
  const std::uint64_t exec_n1 = plan.exec_n1(a.rows());
  padded_ = exec_n1 != a.rows();
  if (padded_) a_pad_ = pad_rows(a, exec_n1);
  c_ = Matrix::uninitialized(exec_n1, exec_n1);
}

Matrix ExecBuffers::take_result() {
  const std::size_t n1 = a_->rows();
  if (!padded_) return std::move(c_);
  Matrix c = Matrix::uninitialized(n1, n1);
  c.view().assign(c_.block(0, 0, n1, n1));
  return c;
}

}  // namespace internal

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kOneD: return "1D";
    case Algorithm::kTwoD: return "2D";
    case Algorithm::kThreeD: return "3D";
  }
  return "?";
}

const char* strategy_name(CollectiveStrategy s) {
  switch (s) {
    case CollectiveStrategy::kPairwise: return "pairwise";
    case CollectiveStrategy::kBruck: return "bruck";
    case CollectiveStrategy::kButterfly: return "butterfly";
    case CollectiveStrategy::kHierarchical: return "hierarchical";
  }
  return "?";
}

Plan plan_syrk(std::uint64_t n1, std::uint64_t n2, std::uint64_t max_procs,
               bool n1_divisibility) {
  PlanSearchOptions opts;
  opts.n1_divisibility = n1_divisibility;
  return enumerate_syrk_plans(n1, n2, max_procs, opts).plan();
}

std::ostream& operator<<(std::ostream& os, const Plan& plan) {
  os << "Plan{" << algorithm_name(plan.algorithm) << ", P=" << plan.procs;
  if (plan.c != 0) os << ", c=" << plan.c << ", p1=" << plan.p1;
  os << ", p2=" << plan.p2;
  if (plan.folded()) os << ", folded " << plan.logical << "->" << plan.procs;
  if (plan.padded_n1 != 0) os << ", padded n1=" << plan.padded_n1;
  if (plan.strategy != CollectiveStrategy::kPairwise) {
    os << ", " << strategy_name(plan.strategy);
  }
  os << ", bound case=" << bounds::regime_name(plan.regime) << "}";
  return os;
}

}  // namespace parsyrk::core

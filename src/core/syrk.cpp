#include "core/syrk.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "core/planner.hpp"
#include "core/syrk_internal.hpp"
#include "distribution/block1d.hpp"
#include "matrix/kernels.hpp"
#include "support/check.hpp"

namespace parsyrk::core {

using internal::TriangleBlocks;

namespace internal {
namespace {

/// Alg. 1 per-rank driver, optionally preceded by the root-scatter
/// ingestion flow (opts.root).
void run_1d_rank(comm::Comm& comm, const ConstMatrixView& a,
                 const SyrkOptions& opts, Matrix& c_full) {
  if (!opts.root) {
    const ConstMatrixView mine = column_block_1d(comm, a);
    if (opts.pipeline_chunks >= 1) {
      syrk_1d_spmd_pipelined(comm, mine, opts.pipeline_chunks, c_full);
    } else {
      syrk_1d_spmd(comm, mine, opts.reduce, c_full);
    }
    return;
  }
  const int root = *opts.root;
  const std::size_t n1 = a.rows();
  const std::size_t n2 = a.cols();
  const int p = comm.size();
  const int r = comm.rank();
  // Ingestion: the root packs and scatters the 1D column blocks. Only the
  // root reads the shared input; every other rank works purely from its
  // received buffer.
  comm.set_phase(kPhaseScatterA);
  std::vector<std::vector<double>> parts;
  if (r == root) {
    parts.resize(p);
    for (int q = 0; q < p; ++q) {
      const std::size_t c0 = dist::chunk_begin(n2, p, q);
      const std::size_t cw = dist::chunk_size(n2, p, q);
      parts[q].reserve(n1 * cw);
      for (std::size_t i = 0; i < n1; ++i) {
        for (std::size_t j = c0; j < c0 + cw; ++j) {
          parts[q].push_back(a(i, j));
        }
      }
    }
  }
  auto mine = comm.scatter(parts, root);
  const std::size_t cw = dist::chunk_size(n2, p, r);
  PARSYRK_CHECK(mine.size() == n1 * cw);
  Matrix local(n1, cw);
  flat_assign(local.view(), 0, mine);

  // Alg. 1 on the scattered block. The packed-triangle chunks are uneven,
  // so the reduction is the pairwise (variable-size) Reduce-Scatter.
  syrk_1d_spmd(comm, local.view(), ReduceKind::kPairwise, c_full);
}

/// Alg. 2 per-rank driver. C has no reduction — every output block has
/// exactly one owner — so the owner runs its kernels straight into the
/// block's place in `c_full` and mirrors the block into the upper triangle.
/// `c_full` arrives uninitialised and the kernels accumulate, so each block
/// is zero-filled by its owner just before its kernel: page faults and
/// zeroing run in parallel on the owning ranks.
void run_2d_rank(comm::Comm& comm, const ConstMatrixView& a,
                 const Plan& plan, const SyrkOptions& opts, Matrix& c_full) {
  dist::TriangleBlockDistribution d(plan.c);
  const auto k = static_cast<std::uint64_t>(comm.rank());
  const AssembledRowBlocks rb =
      syrk_2d_gather(comm, d, a, opts.exchange, opts.pipeline_chunks);
  const std::size_t nb = a.rows() / d.num_block_rows();
  for (const auto& [bi, bj] : d.owned_pairs(k)) {
    const MatrixView cij = c_full.block(bi * nb, bj * nb, nb, nb);
    cij.fill(0.0);
    gemm_nt(rb.block_of(bi).view(), rb.block_of(bj).view(), cij);
    transpose_into(cij, c_full.block(bj * nb, bi * nb, nb, nb));
  }
  if (const auto di = d.diagonal_block(k)) {
    const MatrixView cii = c_full.block(*di * nb, *di * nb, nb, nb);
    cii.fill(0.0);
    syrk_lower(rb.block_of(*di).view(), cii);
    symmetrize_from_lower(cii);
  }
}

/// Alg. 3 per-rank driver.
void run_3d_rank(comm::Comm& comm, const ConstMatrixView& a,
                 const Plan& plan, const SyrkOptions& opts, Matrix& c_full) {
  dist::TriangleBlockDistribution d(plan.c);
  const std::uint64_t p1 = d.num_procs();
  const std::uint64_t p2 = plan.p2;
  const int p2i = static_cast<int>(p2);
  const std::size_t n2 = a.cols();
  const std::size_t nb = a.rows() / d.num_block_rows();
  // Grid coordinates: rank w = k + p1·l.
  const auto w = static_cast<std::uint64_t>(comm.rank());
  const int k = static_cast<int>(w % p1);
  const int l = static_cast<int>(w / p1);

  // Slice communicator Pi_{*l} runs the 2D algorithm on column block l
  // (Alg. 3 line 3).
  comm::Comm slice = comm.split(/*color=*/l, /*key=*/k);
  const std::size_t c0 = dist::chunk_begin(n2, p2i, l);
  const std::size_t cw = dist::chunk_size(n2, p2i, l);
  auto a_slice = a.block(0, c0, a.rows(), cw);

  if (opts.pipeline_chunks >= 1) {
    // Pipelined Alg. 3: gather/assemble the slice's row blocks with the
    // slice exchange itself segmented (the gather was the one phase the
    // original overlap pass left blocking), then compute the owned output
    // blocks group by group, reduce-scattering each group across Pi_{k*}
    // while the next group's GEMMs run. Whole blocks per group and
    // ownership-range intersections per segment keep every entry's
    // accumulation order identical to blocking, so results are
    // bitwise-equal for ANY chunk count; chunks=1 additionally replays
    // the blocking message schedule bitwise.
    internal::AssembledRowBlocks rb =
        syrk_2d_gather(slice, d, a_slice, ExchangeKind::kPairwise,
                       opts.pipeline_chunks);
    comm::Comm row = comm.split(/*color=*/k, /*key=*/l);
    comm.set_phase(kPhaseReduceC);

    // Output shape and flat layout; sizes are known before any block is
    // computed, which is what lets segments post early.
    TriangleBlocks shape;
    shape.pairs = d.owned_pairs(static_cast<std::uint64_t>(k));
    shape.diag_index = d.diagonal_block(static_cast<std::uint64_t>(k));
    const std::size_t items =
        shape.pairs.size() + (shape.diag_index ? 1 : 0);
    std::vector<std::size_t> item_off(items + 1, 0);
    for (std::size_t t = 0; t < items; ++t) {
      const std::size_t sz =
          t < shape.pairs.size() ? nb * nb : nb * (nb + 1) / 2;
      item_off[t + 1] = item_off[t] + sz;
    }
    const std::size_t total = item_off[items];

    // Computes output items [i0, i1) into `flat_out`, returning the flops.
    auto compute_group = [&](std::size_t i0, std::size_t i1,
                             std::vector<double>& flat_out) {
      flat_out.clear();
      std::uint64_t flops = 0;
      for (std::size_t t = i0; t < i1; ++t) {
        if (t < shape.pairs.size()) {
          const auto [bi, bj] = shape.pairs[t];
          Matrix cij(nb, nb);
          gemm_nt(rb.block_of(bi).view(), rb.block_of(bj).view(), cij.view());
          flat_append(cij.view(), flat_out);
          flops += 2ull * nb * nb * cw;
        } else {
          Matrix diag(nb, nb);
          syrk_lower(rb.block_of(*shape.diag_index).view(), diag.view());
          for (std::size_t rr = 0; rr < nb; ++rr) {
            for (std::size_t cc = 0; cc <= rr; ++cc) {
              flat_out.push_back(diag(rr, cc));
            }
          }
          flops += static_cast<std::uint64_t>(nb) * (nb + 1) * cw;
        }
      }
      return flops;
    };

    const int G = static_cast<int>(std::clamp<std::size_t>(
        static_cast<std::size_t>(opts.pipeline_chunks), 1,
        std::max<std::size_t>(items, 1)));
    std::vector<std::size_t> own_b(p2), own_e(p2);
    for (int q = 0; q < p2i; ++q) {
      own_b[q] = dist::chunk_begin(total, p2i, q);
      own_e[q] = dist::chunk_end(total, p2i, q);
    }
    std::vector<comm::Request> reqs(G);
    std::vector<std::uint64_t> tokens(G), words(G);
    std::vector<std::size_t> my_lo(G);
    std::vector<double> scratch;  // segment payloads are captured at post
    auto post_group = [&](int g) {
      const std::size_t i0 = dist::chunk_begin(items, G, g);
      const std::size_t i1 = dist::chunk_end(items, G, g);
      const std::size_t g_lo = item_off[i0];
      const std::size_t g_hi = item_off[i1];
      const std::uint64_t flops = compute_group(i0, i1, scratch);
      std::vector<std::size_t> sizes(p2);
      for (int q = 0; q < p2i; ++q) {
        const std::size_t b = std::max(own_b[q], g_lo);
        const std::size_t e = std::min(own_e[q], g_hi);
        sizes[q] = e > b ? e - b : 0;
      }
      my_lo[g] = std::max(own_b[l], g_lo);
      words[g] = (g_hi - g_lo - sizes[l]) +
                 static_cast<std::uint64_t>(p2 - 1) * sizes[l];
      tokens[g] = row.overlap_begin();
      reqs[g] = row.ireduce_scatter(scratch, sizes);
      reqs[g].test();  // kick the first round so peers can overlap
      return flops;
    };
    post_group(0);  // group 0's compute has nothing to hide behind
    for (int g = 0; g < G; ++g) {
      std::uint64_t overlapped_flops = 0;
      if (g + 1 < G) overlapped_flops = post_group(g + 1);
      auto reduced = reqs[g].take();
      if (G > 1) {
        row.overlap_end(tokens[g], static_cast<std::uint32_t>(g), words[g],
                        overlapped_flops);
      }
      scatter_flat_to_full(shape, reduced, my_lo[g], nb, c_full);
    }
    return;
  }

  TriangleBlocks blocks = syrk_2d_spmd(slice, d, a_slice);

  // Reduce-Scatter of C_k across Pi_{k*} (Alg. 3 line 5).
  comm::Comm row = comm.split(/*color=*/k, /*key=*/l);
  comm.set_phase(kPhaseReduceC);
  auto flat = flatten_triangle_blocks(blocks);
  std::vector<std::size_t> sizes(p2);
  for (std::uint64_t q = 0; q < p2; ++q) {
    sizes[q] = dist::chunk_size(flat.size(), p2i, static_cast<int>(q));
  }
  auto reduced = row.reduce_scatter(flat, sizes);
  const std::size_t lo = dist::chunk_begin(flat.size(), p2i, l);
  scatter_flat_to_full(blocks, reduced, lo, nb, c_full);
}

}  // namespace

void run_syrk_plan_rank(comm::Comm& comm, const ConstMatrixView& a,
                        const Plan& plan, const SyrkOptions& opts,
                        Matrix& c_full) {
  switch (plan.algorithm) {
    case Algorithm::kOneD:
      run_1d_rank(comm, a, opts, c_full);
      break;
    case Algorithm::kTwoD:
      run_2d_rank(comm, a, plan, opts, c_full);
      break;
    case Algorithm::kThreeD:
      run_3d_rank(comm, a, plan, opts, c_full);
      break;
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

Matrix run_syrk_plan(comm::World& world, const Matrix& a, const Plan& plan,
                     const SyrkOptions& opts) {
  PARSYRK_REQUIRE(
      static_cast<std::uint64_t>(world.size()) == plan.logical_ranks(),
      algorithm_name(plan.algorithm), " plan needs ", plan.logical_ranks(),
      " ranks; world has ", world.size());
  PARSYRK_REQUIRE(
      !plan.folded() ||
          static_cast<std::uint64_t>(world.physical_size()) == plan.procs,
      "folded plan needs ", plan.procs, " physical ranks; world has ",
      world.physical_size());
  if (opts.root) {
    PARSYRK_REQUIRE(plan.algorithm == Algorithm::kOneD,
                    "root-held input is only supported with the 1D algorithm");
    PARSYRK_REQUIRE(*opts.root >= 0 && *opts.root < world.size(), "bad root ",
                    *opts.root);
  }
  if (opts.pipeline_chunks >= 1) {
    PARSYRK_REQUIRE(!opts.root,
                    "pipelined execution does not support root-held ingestion");
    PARSYRK_REQUIRE(opts.reduce == ReduceKind::kPairwise &&
                        opts.exchange == ExchangeKind::kPairwise,
                    "pipelined execution supports pairwise collectives only");
  }
  ExecBuffers exec(a, plan);
  world.run([&](comm::Comm& comm) {
    run_syrk_plan_rank(comm, exec.a(), plan, opts, exec.c());
  });
  return exec.take_result();
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

#include "core/syrk_internal.hpp"

#include <algorithm>
#include <span>

#include "distribution/block1d.hpp"
#include "matrix/kernels.hpp"
#include "matrix/packed.hpp"
#include "support/check.hpp"

namespace parsyrk::core::internal {

std::vector<double> packed_triangle_buffer(std::size_t n1, int p,
                                           ReduceKind reduce) {
  const std::size_t total = PackedLower::packed_size(n1);
  const auto ranks = static_cast<std::size_t>(p);
  const std::size_t size = reduce == ReduceKind::kBruck
                               ? (total + ranks - 1) / ranks * ranks
                               : total;
  return std::vector<double>(size, 0.0);
}

void reduce_scatter_packed(comm::Comm& comm, std::span<const double> send,
                           ReduceKind reduce, Matrix& c_full) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t total = PackedLower::packed_size(c_full.rows());
  comm.set_phase(kPhaseReduceC);
  if (reduce == ReduceKind::kBruck) {
    // Equal blocks over the padded buffer; trailing zeros of the last
    // rank's block are dropped after the reduction.
    const std::size_t blk = (total + p - 1) / p;
    PARSYRK_CHECK(send.size() == blk * static_cast<std::size_t>(p));
    const auto mine = comm.reduce_scatter_bruck(send);
    const std::size_t lo = blk * static_cast<std::size_t>(r);
    const std::size_t valid = lo >= total ? 0 : std::min(blk, total - lo);
    assemble_packed_range(std::span(mine).first(valid), lo, c_full.view());
    return;
  }
  PARSYRK_CHECK(send.size() == total);
  std::vector<std::size_t> sizes(p);
  for (int q = 0; q < p; ++q) sizes[q] = dist::chunk_size(total, p, q);
  // Hierarchical falls back to flat pairwise when the communicator's
  // members don't form whole nodes of the world's topology.
  const auto mine = (reduce == ReduceKind::kHierarchical &&
                     comm.hier_available())
                        ? comm.reduce_scatter_hier(send, sizes)
                        : comm.reduce_scatter(send, sizes);
  assemble_packed_range(mine, dist::chunk_begin(total, p, r), c_full.view());
}

ConstMatrixView column_block_1d(const comm::Comm& comm,
                                const ConstMatrixView& a) {
  const std::size_t n2 = a.cols();
  return a.block(0, dist::chunk_begin(n2, comm.size(), comm.rank()), a.rows(),
                 dist::chunk_size(n2, comm.size(), comm.rank()));
}

namespace {

/// Alg. 1 line 3 straight into the send buffer: zero-fill, then accumulate
/// A_l·A_lᵀ's packed lower triangle. Each entry ends up exactly the sum a
/// zeroed dense C would hold.
std::vector<double> local_syrk_packed(const ConstMatrixView& a_local, int p,
                                      ReduceKind reduce) {
  const std::size_t n1 = a_local.rows();
  std::vector<double> send = packed_triangle_buffer(n1, p, reduce);
  syrk_lower_packed(a_local,
                    std::span(send).first(PackedLower::packed_size(n1)));
  return send;
}

}  // namespace

void syrk_1d_spmd(comm::Comm& comm, const ConstMatrixView& a_local,
                  ReduceKind reduce, Matrix& c_full) {
  const auto send = local_syrk_packed(a_local, comm.size(), reduce);
  reduce_scatter_packed(comm, send, reduce, c_full);
}

void syrk_1d_spmd_pipelined(comm::Comm& comm, const ConstMatrixView& a_local,
                            int chunks, Matrix& c_full) {
  const int p = comm.size();
  const int r = comm.rank();
  const auto packed = local_syrk_packed(a_local, p, ReduceKind::kPairwise);

  // Segmented Reduce-Scatter: segment s of the packed triangle is assembled
  // into c_full while segment s+1 is in flight. Each segment's per-rank
  // sizes are the intersections of the blocking ownership ranges with the
  // segment, so summed words — and each entry's accumulation order — match
  // the blocking path exactly.
  comm.set_phase(kPhaseReduceC);
  const std::size_t total = packed.size();
  const int S = static_cast<int>(std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(chunks, 1)), 1,
      std::max<std::size_t>(total, 1)));
  std::vector<std::size_t> own_b(p), own_e(p);
  for (int q = 0; q < p; ++q) {
    own_b[q] = dist::chunk_begin(total, p, q);
    own_e[q] = dist::chunk_end(total, p, q);
  }
  const std::span<const double> data = packed;
  std::vector<comm::Request> reqs(S);
  std::vector<std::uint64_t> tokens(S), words(S);
  std::vector<std::size_t> my_lo(S);
  auto post = [&](int s) {
    const std::size_t lo = dist::chunk_begin(total, S, s);
    const std::size_t hi = dist::chunk_end(total, S, s);
    std::vector<std::size_t> sizes(p);
    for (int q = 0; q < p; ++q) {
      const std::size_t b = std::max(own_b[q], lo);
      const std::size_t e = std::min(own_e[q], hi);
      sizes[q] = e > b ? e - b : 0;
    }
    my_lo[s] = std::max(own_b[r], lo);
    // Words this rank moves for the segment: every peer's share out, p−1
    // partials of its own share in (logical volume; folding discounts
    // co-located pairs in the ledger, not here).
    words[s] = (hi - lo - sizes[r]) +
               static_cast<std::uint64_t>(p - 1) * sizes[r];
    tokens[s] = comm.overlap_begin();
    reqs[s] = comm.ireduce_scatter(data.subspan(lo, hi - lo), sizes);
    reqs[s].test();  // kick the first round so peers can overlap against it
  };
  post(0);
  for (int s = 0; s < S; ++s) {
    if (s + 1 < S) post(s + 1);
    const auto seg = reqs[s].take();
    // A single segment has nothing in flight beside it: no overlap window,
    // keeping chunks=1 traces bitwise identical to blocking ones.
    if (S > 1) {
      comm.overlap_end(tokens[s], static_cast<std::uint32_t>(s), words[s],
                       /*flops=*/0);
    }
    assemble_packed_range(seg, my_lo[s], c_full.view());
  }
}

const Matrix& AssembledRowBlocks::block_of(std::uint64_t i) const {
  auto it = std::lower_bound(indices.begin(), indices.end(), i);
  PARSYRK_CHECK(it != indices.end() && *it == i);
  return blocks[static_cast<std::size_t>(it - indices.begin())];
}

AssembledRowBlocks syrk_2d_gather(comm::Comm& comm,
                                  const dist::TriangleBlockDistribution& d,
                                  const ConstMatrixView& a,
                                  ExchangeKind exchange, int pipeline_chunks) {
  const auto p = static_cast<std::uint64_t>(comm.size());
  PARSYRK_REQUIRE(p == d.num_procs(), "2D SYRK needs exactly c(c+1) = ",
                  d.num_procs(), " ranks; communicator has ", p);
  const std::uint64_t c = d.c();
  const std::uint64_t nblocks = d.num_block_rows();  // c²
  const std::size_t n1 = a.rows();
  const std::size_t n2 = a.cols();
  PARSYRK_REQUIRE(n1 % nblocks == 0, "2D SYRK needs n1 divisible by c² = ",
                  nblocks, "; got n1 = ", n1);
  const std::size_t nb = n1 / nblocks;      // block dimension
  const std::size_t flat = nb * n2;         // words per row block A_i
  const auto k = static_cast<std::uint64_t>(comm.rank());
  const int parts = static_cast<int>(c + 1);

  // --- All-to-All gather of the row blocks in R_k (Alg. 2 lines 3–14) ---
  // This rank holds chunk q = chunk_index(i, k) of each A_i with i in R_k
  // and must send it to the other c members of Q_i. Because the distribution
  // is valid, each pair of processors shares at most one row block, so the
  // exchange is a single personalized All-to-All.
  comm.set_phase(kPhaseGatherA);
  std::vector<std::vector<double>> sendbuf(p);
  const auto& rk = d.row_block_set(k);
  auto read_own_chunk = [&](std::uint64_t i) {
    const int q = static_cast<int>(d.chunk_index(i, k));
    const std::size_t lo = dist::chunk_begin(flat, parts, q);
    const std::size_t hi = dist::chunk_end(flat, parts, q);
    std::vector<double> chunk;
    chunk.reserve(hi - lo);
    for (std::size_t t = lo; t < hi; ++t) {
      chunk.push_back(a(i * nb + t / n2, t % n2));
    }
    return chunk;
  };
  for (std::uint64_t i : rk) {
    auto mine = read_own_chunk(i);
    for (std::uint64_t k2 : d.processor_set(i)) {
      if (k2 == k) continue;
      PARSYRK_CHECK_MSG(sendbuf[k2].empty(), "processors ", k, " and ", k2,
                        " would exchange two chunks; invalid distribution");
      sendbuf[k2] = mine;
    }
  }
  // Chunk geometry per source: which assembled block a peer's chunk lands
  // in, and where. Each pair of processors shares at most one row block.
  struct SrcInfo {
    std::size_t block_pos = 0;  // index into rk order
    std::size_t lo = 0, hi = 0;  // flat range within the row block
  };
  std::vector<std::optional<SrcInfo>> src_info(p);
  for (std::size_t bi = 0; bi < rk.size(); ++bi) {
    const std::uint64_t i = rk[bi];
    for (std::uint64_t k2 : d.processor_set(i)) {
      if (k2 == k) continue;
      const int q = static_cast<int>(d.chunk_index(i, k2));
      src_info[k2] = SrcInfo{bi, dist::chunk_begin(flat, parts, q),
                             dist::chunk_end(flat, parts, q)};
    }
  }

  AssembledRowBlocks rb;
  rb.indices.assign(rk.begin(), rk.end());
  rb.blocks.reserve(rk.size());
  for (std::uint64_t i : rk) {
    Matrix ai(nb, n2);
    // Own chunk: read straight from the shared view (free, local data).
    const int q = static_cast<int>(d.chunk_index(i, k));
    const std::size_t lo = dist::chunk_begin(flat, parts, q);
    const std::size_t hi = dist::chunk_end(flat, parts, q);
    for (std::size_t t = lo; t < hi; ++t) {
      ai(t / n2, t % n2) = a(i * nb + t / n2, t % n2);
    }
    rb.blocks.push_back(std::move(ai));
  }

  if (pipeline_chunks >= 1) {
    // Segmented nonblocking exchange: every payload is sliced into S
    // contiguous segments (sender and receiver agree on the slicing because
    // chunk sizes are distribution-determined), and segment s assembles
    // while segment s+1 is in flight. Summed words are identical to the
    // blocking exchange; only the message count scales with S.
    PARSYRK_REQUIRE(exchange == ExchangeKind::kPairwise,
                    "pipelined 2D exchange supports pairwise only");
    // Effective segment count: no payload is smaller than ⌊flat/(c+1)⌋
    // words, so clamping there keeps every segment of every nonempty
    // payload nonempty (a larger S would post empty messages, changing the
    // schedule for no overlap gain). The clamp depends only on
    // distribution-level quantities, so sender and receiver agree.
    const int S = static_cast<int>(std::clamp<std::size_t>(
        static_cast<std::size_t>(std::max(pipeline_chunks, 1)), 1,
        std::max<std::size_t>(flat / parts, 1)));
    std::vector<comm::Request> reqs(S);
    std::vector<std::uint64_t> tokens(S), sent(S);
    auto post = [&](int s) {
      std::vector<std::vector<double>> seg(p);
      std::uint64_t w = 0;
      for (std::uint64_t k2 = 0; k2 < p; ++k2) {
        const auto& full = sendbuf[k2];
        const std::size_t lo = dist::chunk_begin(full.size(), S, s);
        const std::size_t hi = dist::chunk_end(full.size(), S, s);
        seg[k2].assign(full.begin() + lo, full.begin() + hi);
        if (k2 != k) w += hi - lo;
      }
      sent[s] = w;
      tokens[s] = comm.overlap_begin();
      reqs[s] = comm.iall_to_all_v(seg);
      reqs[s].test();  // kick the first round so peers can overlap
    };
    post(0);
    for (int s = 0; s < S; ++s) {
      if (s + 1 < S) post(s + 1);
      auto seg_parts = reqs[s].take_parts();
      std::uint64_t recvd = 0;
      for (std::uint64_t k2 = 0; k2 < p; ++k2) {
        if (k2 == k) continue;
        recvd += seg_parts[k2].size();
      }
      if (S > 1) {
        comm.overlap_end(tokens[s], static_cast<std::uint32_t>(s),
                         sent[s] + recvd, /*flops=*/0);
      }
      // Assemble this segment (under the next segment's in-flight window).
      for (std::uint64_t k2 = 0; k2 < p; ++k2) {
        if (k2 == k) continue;
        if (!src_info[k2]) {
          PARSYRK_CHECK_MSG(seg_parts[k2].empty(), "rank ", k,
                            " received an unexpected chunk from ", k2);
          continue;
        }
        const SrcInfo& si = *src_info[k2];
        const std::size_t len = si.hi - si.lo;
        const std::size_t s_lo = dist::chunk_begin(len, S, s);
        const std::size_t s_hi = dist::chunk_end(len, S, s);
        PARSYRK_CHECK_MSG(seg_parts[k2].size() == s_hi - s_lo, "rank ", k,
                          " expected a segment of ", s_hi - s_lo,
                          " words from ", k2, ", got ", seg_parts[k2].size());
        flat_assign(rb.blocks[si.block_pos].view(), si.lo + s_lo,
                    seg_parts[k2]);
      }
    }
    return rb;
  }

  std::vector<std::vector<double>> recvbuf;
  if (exchange == ExchangeKind::kPairwise) {
    recvbuf = comm.all_to_all_v(sendbuf);
  } else if (exchange == ExchangeKind::kHierarchical) {
    // Two-level schedule (falls back to flat pairwise inside when the
    // communicator's members don't form whole nodes). Payloads are moved
    // verbatim, so the assembled blocks are bitwise-identical to pairwise.
    recvbuf = comm.all_to_all_v_hier(sendbuf);
  } else {
    // Butterfly needs equal blocks: every nonempty block is one even chunk
    // of a row block; empty destinations are padded with zeros. The extra
    // zeros are the §6 bandwidth price on top of the (log2 P)/2 factor.
    PARSYRK_REQUIRE(flat % parts == 0,
                    "butterfly exchange needs even chunks: (n1/c²)·n2 "
                    "divisible by c+1");
    const std::size_t block = flat / parts;
    std::vector<double> flat_send(block * p, 0.0);
    for (std::uint64_t k2 = 0; k2 < p; ++k2) {
      PARSYRK_CHECK(sendbuf[k2].empty() || sendbuf[k2].size() == block);
      std::copy(sendbuf[k2].begin(), sendbuf[k2].end(),
                flat_send.begin() + k2 * block);
    }
    auto flat_recv = comm.all_to_all_butterfly(flat_send, block);
    recvbuf.resize(p);
    for (std::uint64_t k2 = 0; k2 < p; ++k2) {
      if (k2 == k || !d.shared_block(k, k2)) continue;  // padding: discard
      recvbuf[k2].assign(flat_recv.begin() + k2 * block,
                         flat_recv.begin() + (k2 + 1) * block);
    }
  }

  // Assemble the received chunks into the row blocks (own chunks were read
  // during preallocation above).
  for (std::uint64_t k2 = 0; k2 < p; ++k2) {
    if (k2 == k || !src_info[k2]) continue;
    const SrcInfo& si = *src_info[k2];
    const auto& chunk = recvbuf[k2];
    PARSYRK_CHECK_MSG(chunk.size() == si.hi - si.lo, "rank ", k,
                      " expected a chunk of ", si.hi - si.lo, " words from ",
                      k2, ", got ", chunk.size());
    flat_assign(rb.blocks[si.block_pos].view(), si.lo, chunk);
  }
  return rb;
}

TriangleBlocks syrk_2d_compute(const dist::TriangleBlockDistribution& d,
                               std::uint64_t k,
                               const AssembledRowBlocks& rb) {
  const std::size_t nb = rb.blocks.empty() ? 0 : rb.blocks.front().rows();
  TriangleBlocks out;
  out.pairs = d.owned_pairs(k);
  out.off_blocks.reserve(out.pairs.size());
  for (const auto& [i, j] : out.pairs) {
    Matrix cij(nb, nb);
    gemm_nt(rb.block_of(i).view(), rb.block_of(j).view(), cij.view());
    out.off_blocks.push_back(std::move(cij));
  }
  if (auto di = d.diagonal_block(k)) {
    out.diag_index = *di;
    out.diag_block = Matrix(nb, nb);
    syrk_lower(rb.block_of(*di).view(), out.diag_block.view());
  }
  return out;
}

TriangleBlocks syrk_2d_spmd(comm::Comm& comm,
                            const dist::TriangleBlockDistribution& d,
                            const ConstMatrixView& a) {
  AssembledRowBlocks rb = syrk_2d_gather(comm, d, a, ExchangeKind::kPairwise);
  return syrk_2d_compute(d, static_cast<std::uint64_t>(comm.rank()), rb);
}

std::vector<double> flatten_triangle_blocks(const TriangleBlocks& b) {
  std::vector<double> flat;
  std::size_t total = 0;
  for (const auto& m : b.off_blocks) total += m.size();
  std::size_t nb = 0;
  if (b.diag_index) {
    nb = b.diag_block.rows();
    total += nb * (nb + 1) / 2;
  }
  flat.reserve(total);
  for (const auto& m : b.off_blocks) {
    flat_append(m.view(), flat);
  }
  if (b.diag_index) {
    for (std::size_t r = 0; r < nb; ++r) {
      for (std::size_t cc = 0; cc <= r; ++cc) {
        flat.push_back(b.diag_block(r, cc));
      }
    }
  }
  return flat;
}

void scatter_flat_to_full(const TriangleBlocks& shape,
                          const std::vector<double>& chunk, std::size_t lo,
                          std::size_t nb, Matrix& c_full) {
  const std::size_t hi = lo + chunk.size();
  std::size_t off = 0;
  auto emit = [&](std::size_t gi, std::size_t gj) {
    if (off >= lo && off < hi) {
      const double v = chunk[off - lo];
      c_full(gi, gj) = v;
      c_full(gj, gi) = v;
    }
    ++off;
  };
  for (std::size_t bidx = 0; bidx < shape.pairs.size(); ++bidx) {
    const auto [bi, bj] = shape.pairs[bidx];
    if (off + nb * nb <= lo || off >= hi) {
      off += nb * nb;
      continue;
    }
    for (std::size_t r = 0; r < nb; ++r) {
      for (std::size_t cc = 0; cc < nb; ++cc) emit(bi * nb + r, bj * nb + cc);
    }
  }
  if (shape.diag_index) {
    const std::uint64_t di = *shape.diag_index;
    for (std::size_t r = 0; r < nb; ++r) {
      for (std::size_t cc = 0; cc <= r; ++cc) emit(di * nb + r, di * nb + cc);
    }
  }
  PARSYRK_CHECK_MSG(hi <= off, "chunk extends past the flattened blocks");
}

}  // namespace parsyrk::core::internal

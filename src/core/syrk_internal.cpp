#include "core/syrk_internal.hpp"

#include <algorithm>
#include <span>

#include "distribution/block1d.hpp"
#include "matrix/align.hpp"
#include "matrix/arena.hpp"
#include "matrix/kernels.hpp"
#include "support/check.hpp"

namespace parsyrk::core::internal {

Operands Operands::columns(std::size_t c0, std::size_t width) const {
  Operands out = *this;
  out.a = a.block(0, c0, a.rows(), width);
  out.b = b.block(0, c0, b.rows(), width);
  return out;
}

Operands AssembledRowBlocks::rows(std::uint64_t i) const {
  auto it = std::lower_bound(indices.begin(), indices.end(), i);
  PARSYRK_CHECK(it != indices.end() && *it == i);
  const auto t = static_cast<std::size_t>(it - indices.begin());
  if (operands == 1) return blocks[t].view();
  return {blocks[t].view(), blocks[indices.size() + t].view()};
}

AssembledRowBlocks syrk_2d_gather(comm::Comm& comm,
                                  const dist::TriangleBlockDistribution& d,
                                  const Operands& ops, ExchangeKind exchange,
                                  int pipeline_chunks) {
  const auto p = static_cast<std::uint64_t>(comm.size());
  PARSYRK_REQUIRE(p == d.num_procs(), "2D SYRK needs exactly c(c+1) = ",
                  d.num_procs(), " ranks; communicator has ", p);
  const std::uint64_t nblocks = d.num_block_rows();  // c²
  const std::size_t n1 = ops.a.rows();
  const std::size_t n2 = ops.a.cols();
  PARSYRK_REQUIRE(n1 % nblocks == 0, "2D SYRK needs n1 divisible by c² = ",
                  nblocks, "; got n1 = ", n1);
  const std::size_t nb = n1 / nblocks;      // block dimension
  const std::size_t flat = nb * n2;         // words per row block A_i
  const auto k = static_cast<std::uint64_t>(comm.rank());
  const int parts = static_cast<int>(d.c() + 1);
  const auto& rk = d.row_block_set(k);
  auto chunk_of = [&](std::uint64_t i, std::uint64_t holder) {
    const int q = static_cast<int>(d.chunk_index(i, holder));
    return std::pair{dist::chunk_begin(flat, parts, q),
                     dist::chunk_end(flat, parts, q)};
  };

  // --- All-to-All gather of the row blocks in R_k (Alg. 2 lines 3–14) ---
  // This rank holds chunk q = chunk_index(i, k) of each A_i with i in R_k
  // and must send it to the other c members of Q_i. Because the distribution
  // is valid, each pair of processors shares at most one row block, so the
  // exchange is a single personalized All-to-All. Own chunks are read
  // straight from the shared view (free, local data).
  comm.set_phase(kPhaseGatherA);
  AssembledRowBlocks rb;
  rb.indices.assign(rk.begin(), rk.end());
  rb.operands = ops.count;
  rb.blocks.reserve(ops.count * rk.size());
  for (int o = 0; o < ops.count; ++o) {
    for (std::uint64_t i : rk) {
      Matrix& ai = rb.blocks.emplace_back(nb, n2);
      const auto [lo, hi] = chunk_of(i, k);
      for (std::size_t t = lo; t < hi; ++t) {
        ai(t / n2, t % n2) = ops[o](i * nb + t / n2, t % n2);
      }
    }
  }
  std::vector<std::vector<double>> sendbuf(p);
  // Where each peer's payload lands: the row block shared with it, and the
  // peer's chunk of it. A payload is that chunk of every operand in turn.
  struct SrcInfo {
    std::size_t block_pos = 0;   // index into rk order
    std::size_t lo = 0, hi = 0;  // flat range within the row block
  };
  std::vector<std::optional<SrcInfo>> src_info(p);
  for (std::size_t pos = 0; pos < rk.size(); ++pos) {
    const auto [lo, hi] = chunk_of(rk[pos], k);
    std::vector<double> mine;
    mine.reserve(ops.count * (hi - lo));
    for (int o = 0; o < ops.count; ++o) {
      const Matrix& own = rb.blocks[o * rk.size() + pos];
      for (std::size_t t = lo; t < hi; ++t) {
        mine.push_back(own(t / n2, t % n2));
      }
    }
    for (std::uint64_t k2 : d.processor_set(rk[pos])) {
      if (k2 == k) continue;
      PARSYRK_CHECK_MSG(sendbuf[k2].empty(), "processors ", k, " and ", k2,
                        " would exchange two chunks; invalid distribution");
      sendbuf[k2] = mine;
      const auto [peer_lo, peer_hi] = chunk_of(rk[pos], k2);
      src_info[k2] = SrcInfo{pos, peer_lo, peer_hi};
    }
  }
  auto payload_size = [&](std::uint64_t k2) {
    return src_info[k2] ? ops.count * (src_info[k2]->hi - src_info[k2]->lo)
                        : 0;
  };
  // Checks that k2 sent words [lo, hi) of its payload, then writes them
  // into the row blocks.
  auto receive = [&](std::uint64_t k2, std::size_t lo, std::size_t hi,
                     std::span<const double> data) {
    if (k2 == k) return;
    PARSYRK_CHECK_MSG(data.size() == hi - lo, "rank ", k, " expected ",
                      hi - lo, " words from ", k2, ", got ", data.size());
    for (std::size_t off = lo; !data.empty();) {
      const SrcInfo& si = *src_info[k2];
      const std::size_t len = si.hi - si.lo;
      const std::size_t n = std::min(len - off % len, data.size());
      flat_assign(rb.blocks[off / len * rk.size() + si.block_pos].view(),
                  si.lo + off % len, data.first(n));
      data = data.subspan(n);
      off += n;
    }
  };

  if (exchange == ExchangeKind::kButterfly) {
    // Butterfly needs equal blocks: every nonempty block is one even chunk
    // of a row block; empty destinations are padded with zeros. The extra
    // zeros are the §6 bandwidth price on top of the (log2 P)/2 factor.
    PARSYRK_REQUIRE(flat % parts == 0,
                    "butterfly exchange needs even chunks: (n1/c²)·n2 = ",
                    flat, " divisible by c+1 = ", parts);
    const std::size_t block = ops.count * (flat / parts);
    std::vector<double> flat_send(block * p, 0.0);
    for (std::uint64_t k2 = 0; k2 < p; ++k2) {
      PARSYRK_CHECK(sendbuf[k2].empty() || sendbuf[k2].size() == block);
      std::copy(sendbuf[k2].begin(), sendbuf[k2].end(),
                flat_send.begin() + k2 * block);
    }
    const auto flat_recv = comm.all_to_all_butterfly(flat_send, block);
    for (std::uint64_t k2 = 0; k2 < p; ++k2) {
      if (!src_info[k2]) continue;  // padding: discard
      receive(k2, 0, block,
              std::span(flat_recv).subspan(k2 * block, block));
    }
    return rb;
  }
  if (exchange == ExchangeKind::kHierarchical) {
    // Two-level schedule (flat pairwise inside when the communicator's
    // members don't form whole nodes). Payloads are moved verbatim, so the
    // assembled blocks are bitwise-identical to pairwise.
    const auto recv = comm.all_to_all_v_hier(sendbuf);
    for (std::uint64_t k2 = 0; k2 < p; ++k2) {
      receive(k2, 0, payload_size(k2), recv[k2]);
    }
    return rb;
  }

  // Pairwise, as S segmented nonblocking All-to-Alls: every payload is
  // sliced into S contiguous segments (sender and receiver agree on the
  // slicing because payload sizes are distribution-determined), and segment
  // s assembles while segment s+1 is in flight. Summed words are those of
  // the blocking exchange; only the message count scales with S. No
  // payload is smaller than ⌊flat/(c+1)⌋ words, so clamping S there keeps
  // every segment of every nonempty payload nonempty (a larger S would
  // post empty messages, changing the schedule for no overlap gain).
  const int S = static_cast<int>(std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(pipeline_chunks, 1)), 1,
      std::max<std::size_t>(flat / parts, 1)));
  std::vector<comm::Request> reqs(S);
  std::vector<std::uint64_t> tokens(S), sent(S);
  auto post = [&](int s) {
    std::vector<std::vector<double>> seg;
    if (S > 1) {
      seg.resize(p);
      for (std::uint64_t k2 = 0; k2 < p; ++k2) {
        const auto& full = sendbuf[k2];
        seg[k2].assign(full.begin() + dist::chunk_begin(full.size(), S, s),
                       full.begin() + dist::chunk_end(full.size(), S, s));
      }
    }
    const auto& payloads = S > 1 ? seg : sendbuf;
    sent[s] = 0;
    for (std::uint64_t k2 = 0; k2 < p; ++k2) {
      if (k2 != k) sent[s] += payloads[k2].size();
    }
    tokens[s] = comm.overlap_begin();
    reqs[s] = comm.iall_to_all_v(payloads);
    reqs[s].test();  // kick the first round so peers can overlap against it
  };
  post(0);
  for (int s = 0; s < S; ++s) {
    if (s + 1 < S) post(s + 1);
    const auto seg_parts = reqs[s].take_parts();
    // A single segment has nothing in flight beside it: no overlap window,
    // keeping one-segment traces bitwise identical to blocking ones.
    if (S > 1) {
      std::uint64_t recvd = 0;
      for (std::uint64_t k2 = 0; k2 < p; ++k2) {
        if (k2 != k) recvd += seg_parts[k2].size();
      }
      comm.overlap_end(tokens[s], static_cast<std::uint32_t>(s),
                       sent[s] + recvd, /*flops=*/0);
    }
    for (std::uint64_t k2 = 0; k2 < p; ++k2) {
      const std::size_t len = payload_size(k2);
      receive(k2, dist::chunk_begin(len, S, s), dist::chunk_end(len, S, s),
              seg_parts[k2]);
    }
  }
  return rb;
}

std::uint64_t compute_owned(const OwnedLayout& layout, const RowSource& rows,
                            std::size_t i0, std::size_t i1,
                            std::span<double> out) {
  const std::size_t nb = layout.nb;
  std::uint64_t flops = 0;
  for (std::size_t t = i0; t < i1; ++t) {
    if (t < layout.pairs.size()) {
      const auto [bi, bj] = layout.pairs[t];
      const Operands ri = rows(bi);
      const Operands rj = rows(bj);
      const MatrixView cij(out.data() + layout.offset(t), nb, nb, nb);
      gemm_nt(ri.a, rj.b, cij, Beta::kZero);
      if (ri.count == 2) gemm_nt(ri.b, rj.a, cij);
      flops += 2ull * nb * nb * ri.a.cols() * ri.count;
    } else {
      const Operands rd = rows(*layout.diag);
      const auto slot = out.subspan(layout.offset(t), nb * (nb + 1) / 2);
      if (rd.count == 1) {
        syrk_lower_packed(rd.a, slot, Beta::kZero);
      } else {
        syr2k_lower_packed(rd.a, rd.b, slot, Beta::kZero);
      }
      flops += static_cast<std::uint64_t>(nb) * (nb + 1) * rd.a.cols() *
               rd.count;
    }
  }
  return flops;
}

namespace {

/// Writes row-major entries [at, at + piece.size()) of a square block into
/// `blk`, one contiguous copy per row, and their transposes into `mirror`:
/// whole rows through the tiled transpose, a partial first or last row
/// entry by entry.
void assemble_block_range(std::span<const double> piece, std::size_t at,
                          const MatrixView& blk, const MatrixView& mirror) {
  const std::size_t n = blk.cols();
  const std::size_t end = at + piece.size();
  for (std::size_t x = at; x < end;) {
    const std::size_t len = std::min(n - x % n, end - x);
    std::copy_n(piece.data() + (x - at), len,
                blk.data() + x / n * blk.ld() + x % n);
    x += len;
  }
  auto mirror_entries = [&](std::size_t from, std::size_t to) {
    for (std::size_t x = from; x < to; ++x) {
      mirror(x % n, x / n) = blk(x / n, x % n);
    }
  };
  const std::size_t whole_lo = (at + n - 1) / n;  // first whole row
  const std::size_t whole_hi = end / n;           // one past the last
  if (whole_lo >= whole_hi) {
    mirror_entries(at, end);
    return;
  }
  mirror_entries(at, whole_lo * n);
  transpose_into(blk.block(whole_lo, 0, whole_hi - whole_lo, n),
                 mirror.block(0, whole_lo, n, whole_hi - whole_lo));
  mirror_entries(whole_hi * n, end);
}

}  // namespace

void assemble_owned_range(const OwnedLayout& layout,
                          std::span<const double> chunk, std::size_t lo,
                          const MatrixView& c) {
  if (chunk.empty()) return;
  const std::size_t nb = layout.nb;
  const std::size_t hi = lo + chunk.size();
  PARSYRK_CHECK_MSG(hi <= layout.size(), "chunk extends past the owned blocks");
  for (std::size_t t = 0; t < layout.items(); ++t) {
    const std::size_t b = std::max(lo, layout.offset(t));
    const std::size_t e = std::min(hi, layout.offset(t + 1));
    if (b >= e) continue;
    const auto piece = chunk.subspan(b - lo, e - b);
    const std::size_t at = b - layout.offset(t);
    if (t == layout.pairs.size()) {
      const std::size_t d0 = *layout.diag * nb;
      assemble_packed_range(piece, at, c.block(d0, d0, nb, nb));
    } else {
      const auto [bi, bj] = layout.pairs[t];
      assemble_block_range(piece, at, c.block(bi * nb, bj * nb, nb, nb),
                           c.block(bj * nb, bi * nb, nb, nb));
    }
  }
}

void reduce_scatter_owned(comm::Comm& row, const OwnedLayout& layout,
                          const ComputeItems& compute, ReduceKind reduce,
                          int pipeline_chunks, const MatrixView& c) {
  const int p = row.size();
  const int r = row.rank();
  const std::size_t total = layout.size();
  const std::size_t items = layout.items();
  row.set_phase(kPhaseReduceC);
  // Bruck reduces equal blocks over the buffer padded to a multiple of p;
  // the padding's zeros are dropped after the reduction.
  const std::size_t blk = (total + p - 1) / p;
  const std::size_t len = reduce == ReduceKind::kBruck ? blk * p : total;
  // The kernels write every word of the layout, so the buffer starts
  // uninitialised: the rank's arena slot, reused across requests, unless
  // the buffer is too large to pin in every worker. Then it is a block of
  // this request, which the kept-block store (align.hpp) may hand, dirty,
  // to the next request of its size.
  AlignedVector large;
  std::span<double> send;
  if (len * sizeof(double) < kKeptBlockBytes) {
    send = {kern::KernelArena::current().buffer(
                kern::KernelArena::kSlotSend, len),
            len};
  } else {
    large.resize(len);
    send = large;
  }
  if (reduce == ReduceKind::kBruck) {
    std::fill(send.begin() + total, send.end(), 0.0);
    compute(0, items, send);
    const auto mine = row.reduce_scatter_bruck(send);
    const std::size_t lo = blk * static_cast<std::size_t>(r);
    const std::size_t valid = lo >= total ? 0 : std::min(blk, total - lo);
    assemble_owned_range(layout, std::span(mine).first(valid), lo, c);
    return;
  }
  // Each rank's share of words [lo, hi): its even chunk of the layout,
  // intersected with the range.
  auto shares = [&](std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> sizes(p);
    for (int q = 0; q < p; ++q) {
      const std::size_t b = std::max(dist::chunk_begin(total, p, q), lo);
      const std::size_t e = std::min(dist::chunk_end(total, p, q), hi);
      sizes[q] = e > b ? e - b : 0;
    }
    return sizes;
  };
  const std::size_t mine_lo = dist::chunk_begin(total, p, r);
  if (reduce == ReduceKind::kHierarchical && row.hier_available()) {
    compute(0, items, send);
    const auto mine = row.reduce_scatter_hier(send, shares(0, total));
    assemble_owned_range(layout, mine, mine_lo, c);
    return;
  }

  // Pairwise, as S segments on nonblocking handles: segment s's result is
  // assembled while segment s+1 is in flight. A whole triangle splits
  // entrywise; blocks are grouped whole, and group g+1's kernels run while
  // group g is in flight. Each segment's per-rank sizes are the
  // intersections of the blocking ownership ranges with the segment, so
  // summed words — and each entry's accumulation order — match one
  // segment's exactly.
  const std::size_t units = layout.whole_triangle ? total : items;
  const int S = static_cast<int>(std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(pipeline_chunks, 1)), 1,
      std::max<std::size_t>(units, 1)));
  std::vector<std::size_t> cut(S + 1);  // segment s is [cut[s], cut[s+1])
  for (int s = 0; s <= S; ++s) {
    const std::size_t u = dist::chunk_begin(units, S, s);
    cut[s] = layout.whole_triangle ? u : layout.offset(u);
  }
  std::size_t computed = 0;  // items [0, computed) are in `send`
  std::vector<comm::Request> reqs(S);
  std::vector<std::uint64_t> tokens(S), words(S);
  std::vector<std::size_t> my_lo(S);
  auto post = [&](int s) {
    const std::size_t lo = cut[s];
    const std::size_t hi = cut[s + 1];
    std::size_t upto = computed;
    while (upto < items && layout.offset(upto) < hi) ++upto;
    const std::uint64_t flops =
        upto > computed ? compute(computed, upto, send) : 0;
    computed = upto;
    const std::vector<std::size_t> seg_sizes = shares(lo, hi);
    my_lo[s] = std::max(mine_lo, lo);
    // Words this rank moves for the segment: every peer's share out, p−1
    // partials of its own share in (logical volume; folding discounts
    // co-located pairs in the ledger, not here).
    words[s] = (hi - lo - seg_sizes[r]) +
               static_cast<std::uint64_t>(p - 1) * seg_sizes[r];
    tokens[s] = row.overlap_begin();
    reqs[s] = row.ireduce_scatter(send.subspan(lo, hi - lo),
                                  seg_sizes);
    reqs[s].test();  // kick the first round so peers can overlap against it
    return flops;
  };
  post(0);  // the first segment's kernels have nothing to hide behind
  for (int s = 0; s < S; ++s) {
    const std::uint64_t overlapped = s + 1 < S ? post(s + 1) : 0;
    const auto seg = reqs[s].take();
    // A single segment has nothing in flight beside it: no overlap window,
    // keeping one-segment traces bitwise identical to blocking ones.
    if (S > 1) {
      row.overlap_end(tokens[s], static_cast<std::uint32_t>(s), words[s],
                      overlapped);
    }
    assemble_owned_range(layout, seg, my_lo[s], c);
  }
}

}  // namespace parsyrk::core::internal

// The α-β-γ machine model of §3.2 and closed-form collective costs.
//
// α: per-message latency, β: per-word bandwidth, γ: per-flop compute. The
// paper assumes pairwise-exchange All-to-All and Reduce-Scatter (latency
// P−1, bandwidth (1−1/P)·w); §6 discusses Bruck all-gather and butterfly
// all-to-all trade-offs, which are also modelled here for the E12 ablation.
#pragma once

#include <cmath>
#include <cstdint>

namespace parsyrk::costmodel {

/// Machine parameters. Defaults are representative of a commodity cluster
/// (only ratios matter for the experiments: they rank algorithms, the
/// theorems are about the β term's coefficient). `alpha`/`beta` price the
/// scarce inter-node tier of a two-level nodes × ranks-per-node machine —
/// which on a flat topology is the only tier; `alpha_intra`/`beta_intra`
/// price the cheap intra-node tier (shared-memory / NVLink-class links,
/// roughly 10–20× cheaper than the network on commodity clusters — see
/// docs/TOPOLOGY.md for the calibration note).
struct Machine {
  double alpha = 1.0e-6;  // seconds per inter-node message
  double beta = 1.0e-9;   // seconds per inter-node word
  double gamma = 1.0e-11; // seconds per flop
  double alpha_intra = 1.0e-7;  // seconds per intra-node message
  double beta_intra = 5.0e-11;  // seconds per intra-node word
};

/// Cost of one collective expressed in (messages, words, flops) along the
/// critical path of a single participating processor. `messages`/`words`
/// ride the inter-node tier; the `_intra` fields (zero for every flat
/// collective, so existing call sites are unchanged) ride the cheap tier.
struct CollectiveCost {
  double messages = 0.0;
  double words = 0.0;
  double flops = 0.0;
  double messages_intra = 0.0;
  double words_intra = 0.0;

  double seconds(const Machine& m) const {
    return messages * m.alpha + words * m.beta + flops * m.gamma +
           messages_intra * m.alpha_intra + words_intra * m.beta_intra;
  }
  CollectiveCost& operator+=(const CollectiveCost& o) {
    messages += o.messages;
    words += o.words;
    flops += o.flops;
    messages_intra += o.messages_intra;
    words_intra += o.words_intra;
    return *this;
  }
};

inline CollectiveCost operator+(CollectiveCost a, const CollectiveCost& b) {
  a += b;
  return a;
}

/// Pairwise-exchange All-to-All on P ranks, w words resident per rank before
/// and after: latency P−1, bandwidth (1−1/P)·w (paper §3.2).
inline CollectiveCost all_to_all_pairwise(std::uint64_t p, double w) {
  if (p <= 1) return {};
  const double pd = static_cast<double>(p);
  return {pd - 1.0, (1.0 - 1.0 / pd) * w, 0.0};
}

/// Pairwise-exchange Reduce-Scatter on P ranks, w words per rank before the
/// collective: latency P−1, bandwidth (1−1/P)·w, plus (1−1/P)·w adds.
inline CollectiveCost reduce_scatter_pairwise(std::uint64_t p, double w) {
  if (p <= 1) return {};
  const double pd = static_cast<double>(p);
  const double vol = (1.0 - 1.0 / pd) * w;
  return {pd - 1.0, vol, vol};
}

/// Pairwise-exchange All-Gather (dual of reduce-scatter, no arithmetic);
/// w is the total words resident per rank *after* the collective.
inline CollectiveCost all_gather_pairwise(std::uint64_t p, double w) {
  if (p <= 1) return {};
  const double pd = static_cast<double>(p);
  return {pd - 1.0, (1.0 - 1.0 / pd) * w, 0.0};
}

/// Bruck concatenation all-gather (§6): ceil(log2 P) messages and the same
/// (1−1/P)·w bandwidth — latency- and bandwidth-optimal simultaneously.
inline CollectiveCost all_gather_bruck(std::uint64_t p, double w) {
  if (p <= 1) return {};
  const double pd = static_cast<double>(p);
  return {std::ceil(std::log2(pd)), (1.0 - 1.0 / pd) * w, 0.0};
}

/// Bruck-style Reduce-Scatter (§6): both latency- and bandwidth-optimal —
/// ceil(log2 P) messages at (1−1/P)·w words plus (1−1/P)·w adds.
inline CollectiveCost reduce_scatter_bruck(std::uint64_t p, double w) {
  if (p <= 1) return {};
  const double pd = static_cast<double>(p);
  const double vol = (1.0 - 1.0 / pd) * w;
  return {std::ceil(std::log2(pd)), vol, vol};
}

/// Makespan of a software-pipelined phase: communication time `comm_s`
/// overlapped against compute time `comp_s` in `chunks` equal segments.
/// Steady state runs at the larger of the two; one segment of the smaller
/// term is exposed at each end of the pipe (the first segment's compute has
/// nothing to hide behind, the last segment's flight nothing to hide).
/// chunks <= 1 degenerates to the serial sum comm_s + comp_s. Latency
/// scaling (message count grows with the chunk count) is the caller's
/// responsibility: fold messages·α·chunks into comm_s before calling.
inline double pipelined_seconds(double comm_s, double comp_s, int chunks) {
  if (chunks <= 1) return comm_s + comp_s;
  const double s = static_cast<double>(chunks);
  return (comm_s > comp_s ? comm_s : comp_s) +
         (comm_s > comp_s ? comp_s : comm_s) / s;
}

/// Butterfly (Bruck) All-to-All (§6): latency ceil(log2 P) at the price of a
/// bandwidth factor: (w/2)·ceil(log2 P) words.
inline CollectiveCost all_to_all_butterfly(std::uint64_t p, double w) {
  if (p <= 1) return {};
  const double pd = static_cast<double>(p);
  const double rounds = std::ceil(std::log2(pd));
  return {rounds, 0.5 * w * rounds, 0.0};
}

// ---------------------------------------------------------------------------
// Two-level topology (nodes × ranks-per-node) costs
// ---------------------------------------------------------------------------

/// Reprices a *flat* pairwise collective on a two-level machine: of a
/// rank's P−1 pairwise partners, P−R are off-node, so the inter fraction of
/// its messages and words is (P−R)/(P−1); the remainder moves to the cheap
/// intra tier. Flops are untouched. Identity when ranks_per_node <= 1.
inline CollectiveCost split_tiers(CollectiveCost flat, std::uint64_t p,
                                  std::uint64_t ranks_per_node) {
  if (ranks_per_node <= 1 || p <= 1 || p % ranks_per_node != 0 ||
      p / ranks_per_node < 2) {
    return flat;
  }
  const double pd = static_cast<double>(p);
  const double inter_frac =
      (pd - static_cast<double>(ranks_per_node)) / (pd - 1.0);
  CollectiveCost c;
  c.flops = flat.flops;
  c.messages = flat.messages * inter_frac;
  c.words = flat.words * inter_frac;
  c.messages_intra = flat.messages_intra + flat.messages * (1.0 - inter_frac);
  c.words_intra = flat.words_intra + flat.words * (1.0 - inter_frac);
  return c;
}

/// Hierarchical Reduce-Scatter on N nodes of R ranks (P = N·R), w words per
/// rank before the collective: a binomial intra-node reduce to the leader
/// (ceil(log2 R) messages of w words each along the leader's critical
/// path), a leader-only pairwise reduce-scatter of the node aggregates
/// (N−1 messages, (1−1/N)·w inter words), and an intra-node scatter of the
/// R−1 member segments ((1−1/R)·(w/N) intra words). The busiest rank is
/// the leader; its inter volume (1−1/N)·w is what Theorem 1 bounds at
/// P = N nodes.
inline CollectiveCost reduce_scatter_hier(std::uint64_t nodes,
                                          std::uint64_t ranks_per_node,
                                          double w) {
  if (nodes <= 1 || ranks_per_node < 1) {
    return reduce_scatter_pairwise(nodes * ranks_per_node, w);
  }
  const double nd = static_cast<double>(nodes);
  const double rd = static_cast<double>(ranks_per_node);
  CollectiveCost c;
  // Intra reduce: leader receives ceil(log2 R) partials of w words, adds them.
  const double reduce_rounds = ranks_per_node > 1 ? std::ceil(std::log2(rd)) : 0.0;
  c.messages_intra = reduce_rounds;
  c.words_intra = reduce_rounds * w;
  c.flops = reduce_rounds * w;
  // Inter reduce-scatter between leaders.
  const CollectiveCost inter = reduce_scatter_pairwise(nodes, w);
  c.messages += inter.messages;
  c.words += inter.words;
  c.flops += inter.flops;
  // Intra scatter of the node block (w/N words split over R members).
  if (ranks_per_node > 1) {
    c.messages_intra += rd - 1.0;
    c.words_intra += (1.0 - 1.0 / rd) * (w / nd);
  }
  return c;
}

/// Hierarchical personalized All-to-All on N nodes of R ranks, w words
/// resident per rank: members gather their full images at the leader
/// (R−1 intra messages, (R−1)·w words at the leader), leaders exchange
/// node aggregates pairwise (N−1 messages, R·w·(1−1/N) inter words — the
/// leader carries its whole node's off-node volume), and scatter the
/// regrouped inbound streams (R−1 messages, (R−1)·w intra words).
inline CollectiveCost all_to_all_hier(std::uint64_t nodes,
                                      std::uint64_t ranks_per_node,
                                      double w) {
  if (nodes <= 1 || ranks_per_node < 1) {
    return all_to_all_pairwise(nodes * ranks_per_node, w);
  }
  const double nd = static_cast<double>(nodes);
  const double rd = static_cast<double>(ranks_per_node);
  CollectiveCost c;
  c.messages_intra = 2.0 * (rd - 1.0);             // gather + scatter
  c.words_intra = 2.0 * (rd - 1.0) * w;            // at the leader
  c.messages = nd - 1.0;                           // leader exchange
  c.words = rd * w * (1.0 - 1.0 / nd);
  return c;
}

}  // namespace parsyrk::costmodel

// Communication-cost ledger.
//
// The reproduction's measured quantity is the number of words each rank
// sends/receives (the β term of the α-β-γ model) and the number of messages
// (the α term). Every send/recv in the runtime is recorded here, broken down
// by a per-rank "phase" label so one run can attribute volume to, e.g., the
// All-to-All of A vs the Reduce-Scatter of C.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace parsyrk::comm {

/// Which pricing tier a message travelled on under a two-level topology:
/// intra-node (the cheap α0,β0 link) or inter-node (the scarce α1,β1 link).
/// On a flat machine every rank is its own node, so all traffic is
/// conceptually inter-node; the ledger only keeps the separate inter-tier
/// maps when a topology with ranks_per_node > 1 is set, which leaves the
/// flat hot path byte-identical to the pre-topology accounting.
enum class Tier { kIntra, kInter };

struct Counters {
  std::uint64_t words_sent = 0;
  std::uint64_t words_recv = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_recv = 0;

  Counters& operator+=(const Counters& o) {
    words_sent += o.words_sent;
    words_recv += o.words_recv;
    msgs_sent += o.msgs_sent;
    msgs_recv += o.msgs_recv;
    return *this;
  }

  /// Counters only grow, so the per-field difference of a later reading
  /// minus an earlier one is well-defined (job-scoped accounting).
  Counters& operator-=(const Counters& o) {
    words_sent -= o.words_sent;
    words_recv -= o.words_recv;
    msgs_sent -= o.msgs_sent;
    msgs_recv -= o.msgs_recv;
    return *this;
  }

  bool operator==(const Counters&) const = default;
};

/// Aggregate view over all ranks of one phase (or the whole run).
struct CostSummary {
  Counters max;    // per-field maximum over ranks — the critical-path proxy
  Counters total;  // per-field sum over ranks
  std::uint64_t ranks = 0;

  /// The quantity Theorem 1 bounds: words moved by the busiest processor.
  /// Send and receive overlap in the model, so the max of the two is used.
  std::uint64_t critical_path_words() const {
    return max.words_sent > max.words_recv ? max.words_sent : max.words_recv;
  }
};

/// Thread-safe per-rank cost accounting. One instance per World.
class CostLedger {
 public:
  /// A point-in-time copy of every counter, taken between jobs. Diffing the
  /// live ledger against a snapshot scopes the cumulative accounting to one
  /// job on a reused world, without clobbering the whole-session totals.
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class CostLedger;
    std::vector<std::map<std::string, Counters>> by_phase_;
    // Inter-node-tier counters, parallel to by_phase_; all-empty on flat
    // worlds (ranks_per_node == 1), where no inter map is ever written.
    std::vector<std::map<std::string, Counters>> by_phase_inter_;
  };

  explicit CostLedger(int num_ranks);

  /// Folds the *summaries* onto `physical` processors: logical rank i's
  /// traffic lands in bucket i % physical before the per-field max is taken,
  /// and CostSummary::ranks reports the physical count. Recording and
  /// per_rank()/per_rank_since() stay logical-indexed. Defaults to
  /// num_ranks (unfolded). Set once, before any job runs.
  void set_fold(int physical);

  /// Two-level topology: groups the `physical` processors into nodes of
  /// `ranks_per_node` consecutive processors each (must divide the physical
  /// count; 1 = flat, the default). While set > 1, tier-aware recording
  /// additionally accumulates kInter traffic into a separate inter-node
  /// ledger surfaced by inter_summary()/inter_summary_since().
  void set_topology(int ranks_per_node);
  int ranks_per_node() const;

  /// Sets the phase label subsequent traffic of `rank` is attributed to.
  void set_phase(int rank, std::string phase);

  void record_send(int rank, std::uint64_t words);
  void record_recv(int rank, std::uint64_t words);

  // ---- Tier-aware recording (two-level-topology support) ----
  //
  // The runtime classifies each message by whether its endpoints share a
  // node and passes the tier explicitly. kInter traffic is double-entered:
  // once in the ordinary per-phase counters (so totals, goldens, and every
  // pre-topology consumer are unchanged) and once in the inter-node ledger
  // (only when a topology is set). kIntra traffic touches the ordinary
  // counters alone.

  void record_send(int rank, std::uint64_t words, Tier tier);
  void record_recv(int rank, std::uint64_t words, Tier tier);

  // ---- Explicit-phase recording (nonblocking-operation support) ----
  //
  // A nonblocking operation captures the rank's phase when it is *posted*
  // and records every message it later moves under that phase, even if the
  // rank has since advanced to another phase (or another job's snapshot was
  // taken at the boundary). This is what keeps in-flight traffic attributed
  // to the posting job/phase rather than whatever label happened to be
  // current at completion time.

  void record_send(int rank, std::uint64_t words, const std::string& phase);
  void record_recv(int rank, std::uint64_t words, const std::string& phase);
  void record_send(int rank, std::uint64_t words, const std::string& phase,
                   Tier tier);
  void record_recv(int rank, std::uint64_t words, const std::string& phase,
                   Tier tier);

  /// The phase label `rank`'s traffic is currently attributed to (what a
  /// nonblocking operation captures at post time).
  std::string current_phase(int rank) const;

  /// Clears all counters and phases.
  void reset();

  /// Summary across every phase.
  CostSummary summary() const;
  /// Summary of one phase (empty summary if the phase never ran).
  CostSummary summary(const std::string& phase) const;
  /// All phase names seen, in first-use order.
  std::vector<std::string> phases() const;
  /// Raw per-rank counters accumulated over all phases.
  std::vector<Counters> per_rank() const;

  // ---- Job-scoped accounting (persistent-executor support) ----

  /// Captures the current counters; cheap relative to any SPMD job.
  Snapshot snapshot() const;
  /// Summary of traffic recorded after `since` was taken.
  CostSummary summary_since(const Snapshot& since) const;
  /// Per-phase variant of summary_since.
  CostSummary summary_since(const Snapshot& since,
                            const std::string& phase) const;

  // ---- Rank-range accounting (streamed-job support) ----
  //
  // When several jobs share one world on disjoint rank ranges (the service
  // layer's streamed jobs, launched through World::launch_ranks), each
  // job's traffic lives entirely in its range [rank_begin, rank_end). The
  // range variants restrict the sum and the per-bucket max to that range
  // while keeping CostSummary::ranks at the world's processor count — so a
  // job placed at any base rank summarizes identically to the same job run
  // solo on this world (where the ranks outside its active set record
  // nothing). Unfolded worlds only.

  CostSummary summary_since(const Snapshot& since, int rank_begin,
                            int rank_end) const;
  CostSummary summary_since(const Snapshot& since, const std::string& phase,
                            int rank_begin, int rank_end) const;

  // ---- Inter-node-tier accounting (two-level-topology support) ----
  //
  // Inter summaries fold to *node* buckets: logical rank i's inter traffic
  // lands in node (i % physical) / ranks_per_node, CostSummary::ranks
  // reports the node count, and critical_path_words() is the busiest
  // node's inter volume — the quantity Theorem 1 bounds at P = #nodes.
  // Requires a topology with ranks_per_node > 1 to have been set.

  CostSummary inter_summary() const;
  CostSummary inter_summary_since(const Snapshot& since) const;
  /// Per-phase variant of inter_summary_since (verify-mode tier balance).
  CostSummary inter_summary_since(const Snapshot& since,
                                  const std::string& phase) const;

  /// Per-rank counters (all phases) recorded after `since` was taken.
  std::vector<Counters> per_rank_since(const Snapshot& since) const;

 private:
  struct RankState {
    std::string phase = "default";
    std::map<std::string, Counters> by_phase;
    std::map<std::string, Counters> by_phase_inter;  // kInter tier only
  };

  CostSummary summarize(const std::string* phase, const Snapshot* since,
                        int rank_begin, int rank_end, bool inter) const;

  mutable std::mutex mu_;
  std::vector<RankState> ranks_;
  int physical_;  // summary fold target; == ranks_.size() when unfolded
  int ranks_per_node_ = 1;  // two-level topology; 1 = flat
  std::vector<std::string> phase_order_;
};

}  // namespace parsyrk::comm

// Communication-cost ledger.
//
// The reproduction's measured quantity is the number of words each rank
// sends/receives (the β term of the α-β-γ model) and the number of messages
// (the α term). Every counted message endpoint in the runtime is recorded
// here through one call, record(), broken down by a per-rank "phase" so one
// run can attribute volume to, e.g., the All-to-All of A vs the
// Reduce-Scatter of C.
//
// The ledger owns a World's one phase table: names are interned to ids
// ("default" is id 0), and the trace sink stamps its events with the same
// ids. Each rank keeps its counters in vectors indexed by phase id under its
// own lock. The rank's thread is the only writer; snapshots, summaries and
// per-rank readings are the readers, and may run from another thread while
// the rank is mid-job.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace parsyrk::comm {

/// Which pricing tier a message travelled on under a two-level topology:
/// intra-node (the cheap α0,β0 link) or inter-node (the scarce α1,β1 link).
/// On a flat machine every rank is its own node, so all traffic is
/// conceptually inter-node; the ledger only keeps the separate inter-tier
/// counters when a topology with ranks_per_node > 1 is set, which leaves the
/// flat hot path byte-identical to the pre-topology accounting.
enum class Tier { kIntra, kInter };

/// Message direction, from the recording rank's point of view. The values
/// are part of the binary golden-trace format (TraceEvent::dir).
enum class Dir : std::uint8_t { kSend = 0, kRecv = 1 };

struct Counters {
  std::uint64_t words_sent = 0;
  std::uint64_t words_recv = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_recv = 0;

  /// Counts one message of `words` in direction `dir`.
  void add(Dir dir, std::uint64_t words) {
    if (dir == Dir::kSend) {
      words_sent += words;
      msgs_sent += 1;
    } else {
      words_recv += words;
      msgs_recv += 1;
    }
  }

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
  Counters max;    // per-field maximum over buckets — the critical-path proxy
  Counters total;  // per-field sum over ranks
  std::uint64_t ranks = 0;  // bucket count the max was taken over

  /// The quantity Theorem 1 bounds: words moved by the busiest processor.
  /// Send and receive overlap in the model, so the max of the two is used.
  std::uint64_t critical_path_words() const {
    return max.words_sent > max.words_recv ? max.words_sent : max.words_recv;
  }
};

/// Folds logical ranks onto the machine and takes the per-field max: rank
/// i's counters land in bucket (i % physical) / ranks_per_bucket, and
/// CostSummary::ranks reports physical / ranks_per_bucket buckets. The
/// critical path belongs to the busiest *processor* (ranks_per_bucket = 1),
/// which under folding carries several logical ranks' traffic, or to the
/// busiest *node* (ranks_per_bucket = ranks per node) for inter-tier
/// summaries. `physical` must be a multiple of ranks_per_bucket (0 only for
/// an empty reading). The ledger's summaries and trace::Rollup both use it.
CostSummary fold_summary(std::span<const Counters> per_rank, int physical,
                         int ranks_per_bucket = 1);

/// Per-rank cost accounting with one writer per rank. One instance per World.
class CostLedger {
 public:
  /// Phase id of "default", the phase every rank starts each job in.
  static constexpr std::uint32_t kDefaultPhase = 0;

  /// A point-in-time copy of every counter, taken between jobs (or, for a
  /// rank range, while that range is idle). Diffing the live ledger against
  /// a snapshot scopes the cumulative accounting to one job on a reused
  /// world, without clobbering the whole-session totals.
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class CostLedger;
    std::vector<std::vector<Counters>> by_phase_;
    // Inter-node-tier counters, parallel to by_phase_; all-empty on flat
    // worlds (ranks_per_node == 1), where no inter counter is ever written.
    std::vector<std::vector<Counters>> by_phase_inter_;
  };

  explicit CostLedger(int num_ranks);

  /// Folds the *summaries* onto `physical` processors (see fold_summary);
  /// recording and per_rank()/per_rank_since() stay logical-indexed.
  /// Defaults to num_ranks (unfolded). Set once, before any job runs.
  void set_fold(int physical);

  /// Two-level topology: groups the `physical` processors into nodes of
  /// `ranks_per_node` consecutive processors each (must divide the physical
  /// count; 1 = flat, the default). While set > 1, kInter traffic is also
  /// counted in a separate inter-node ledger surfaced by inter_summary()/
  /// inter_summary_since(). Between jobs only.
  void set_topology(int ranks_per_node);
  int ranks_per_node() const { return ranks_per_node_; }

  // ---- Phases ----

  /// Interns `phase` and attributes subsequent traffic `rank` posts to it.
  /// Called by `rank`'s thread.
  void set_phase(int rank, const std::string& phase);

  /// The id of `rank`'s current phase: what an operation captures when it
  /// is posted. Called by `rank`'s thread.
  std::uint32_t phase_of(int rank) const { return ranks_[rank]->phase; }

  /// Job start on ranks [rank_begin, rank_end): their current phase returns
  /// to "default", exactly as on a fresh world. The ranks must be idle.
  void begin_ranks(int rank_begin, int rank_end);

  /// Every interned phase name, indexed by phase id ("default" is id 0).
  std::vector<std::string> phase_table() const;

  /// Phase names passed to set_phase since construction or reset(), in
  /// first-use order.
  std::vector<std::string> phases() const;

  // ---- Recording ----

  /// Records one message endpoint: `rank` moved `words` in direction `dir`
  /// under phase id `phase` (captured when the operation was posted, so
  /// in-flight traffic stays with the posting job and phase). kInter
  /// traffic is double-entered: once in the ordinary per-phase counters (so
  /// totals, goldens and every flat consumer are unchanged) and once in the
  /// inter-node ledger, only when a topology with ranks_per_node > 1 is set.
  /// Called by `rank`'s thread.
  void record(int rank, std::uint32_t phase, Dir dir, std::uint64_t words,
              Tier tier);

  /// Clears all counters and the phases() list, and returns every rank to
  /// "default". Phase ids stay valid. Between jobs only.
  void reset();

  /// Summary across every phase.
  CostSummary summary() const;
  /// Summary of one phase (empty summary if the phase never ran).
  CostSummary summary(const std::string& phase) const;
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
  /// One rank's counters, on a cache line of its own: the rank's thread
  /// records under `mu` and readers copy under it.
  struct alignas(64) RankState {
    std::uint32_t phase = kDefaultPhase;  // rank thread; job start (idle)
    mutable std::mutex mu;                // guards the counters
    std::vector<Counters> by_phase;        // indexed by phase id
    std::vector<Counters> by_phase_inter;  // kInter tier only
  };

  /// Sentinel phase id selecting every phase.
  static constexpr std::uint32_t kAllPhases = UINT32_MAX;

  CostSummary summarize(const std::string* phase, const Snapshot* since,
                        int rank_begin, int rank_end, bool inter) const;
  /// Per-rank counters of phase id `phase` (or kAllPhases) recorded after
  /// `since` (from the start when null); zero outside [rank_begin, rank_end).
  std::vector<Counters> collect(std::uint32_t phase, const Snapshot* since,
                                int rank_begin, int rank_end,
                                bool inter) const;

  std::vector<std::unique_ptr<RankState>> ranks_;
  int physical_;  // summary fold target; == ranks_.size() when unfolded
  int ranks_per_node_ = 1;  // two-level topology; 1 = flat

  mutable std::mutex phases_mu_;  // guards the phase table
  std::vector<std::string> names_;  // phase id -> name
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::uint32_t> listed_;  // phases(): set_phase first-use order
};

}  // namespace parsyrk::comm

// Per-message communication tracing: the raw event model under src/trace.
//
// When tracing is enabled on a World, every ledger-counted send and receive
// additionally appends one fixed-size TraceEvent to a lock-free single-
// producer/single-consumer ring buffer owned by that rank. The producer is
// the rank's leased pool worker; the consumer (TraceSink::drain) only runs
// between jobs, at the same points where the ledger is snapshotted, so a
// drain never races a push. Each event carries the ledger phase id its
// operation captured when posted; the sink keeps no phase table of its own.
// Draining yields a JobTrace: the job's events merged in (rank, ordinal)
// order with a phase table canonicalized against the ledger's names, which
// is what the exporters and the golden-trace regression format consume.
//
// Ordinals are logical per-rank timestamps (the runtime has no meaningful
// wall clock across simulated ranks); they reset at every job start, so a
// warm world's JobTrace is bitwise identical to a fresh world's — the same
// guarantee the tag-generation reset gives the message schedule itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/ledger.hpp"

namespace parsyrk::comm {

/// Which communicator operation posted a message (a composed collective's
/// messages carry the kinds of the operations it is built from). Values are
/// part of the binary golden-trace format — append only, never renumber;
/// kAllReduce labels no message since the runtime has no all-reduce, and
/// keeps its value for that reason.
enum class OpKind : std::uint8_t {
  kPointToPoint = 0,
  kAllToAllV = 1,
  kReduceScatter = 2,
  kAllGather = 3,
  kAllGatherV = 4,
  kAllReduce = 5,
  kAllGatherBruck = 6,
  kReduceScatterBruck = 7,
  kAllToAllButterfly = 8,
  kBcast = 9,
  kReduce = 10,
  kGather = 11,
  kScatter = 12,
};

const char* op_kind_name(OpKind k);

/// One traced message, as seen by one endpoint. Two endpoints of the same
/// message each record their own event (a send on the sender, a recv on the
/// receiver), mirroring the ledger's two-sided accounting.
struct TraceEvent {
  std::uint64_t ordinal = 0;  // per-rank logical timestamp, resets per job
  std::uint64_t words = 0;    // payload size in doubles
  std::int32_t rank = 0;      // recording world rank
  std::int32_t peer = 0;      // the other endpoint's world rank
  std::uint32_t phase = 0;    // index into JobTrace::phases
  OpKind kind = OpKind::kPointToPoint;
  Dir dir = Dir::kSend;

  /// Bytes on the wire (the runtime moves doubles).
  std::uint64_t bytes() const { return words * sizeof(double); }

  bool operator==(const TraceEvent&) const = default;
};

/// One comm/comp overlap window of a pipelined phase, as seen by one rank:
/// a nonblocking chunk operation was in flight from post_ordinal until
/// complete_ordinal (rank-local event ordinals bracket the window) while
/// `flops` of local kernel work ran under it. Side data next to the event
/// stream — the events themselves still carry the full volume accounting,
/// so unpipelined traces have no overlaps and keep their byte-exact golden
/// format.
struct OverlapInterval {
  std::int32_t rank = 0;            // recording world rank
  std::uint32_t chunk = 0;          // chunk index within the pipelined phase
  std::uint64_t post_ordinal = 0;   // rank ordinal when the op was posted
  std::uint64_t complete_ordinal = 0;  // rank ordinal when it completed
  std::uint64_t words = 0;          // words the chunk's collective moved
  std::uint64_t flops = 0;          // kernel flops computed while in flight

  bool operator==(const OverlapInterval&) const = default;
};

/// Everything recorded for one job: events of all ranks merged in
/// (rank, ordinal) order, plus the phase-name table the events index.
/// Phase ids are canonical (lexicographically sorted names), so two traces
/// of the same schedule compare equal regardless of which rank happened to
/// intern a phase first.
struct JobTrace {
  std::uint64_t job_id = 0;   // World::jobs_run() of the traced job
  std::uint32_t ranks = 0;    // logical ranks (event rank/peer indices)
  /// Physical processors the job's ranks were folded onto (0 = unfolded).
  /// Events between co-located logical ranks are never recorded, so the
  /// event stream already reflects inter-processor traffic only. Runtime
  /// metadata — not part of the binary golden-trace format.
  std::uint32_t physical_ranks = 0;
  /// Two-level topology the job ran under: ranks per node (0 = flat). With
  /// it, inter-node events are those whose rank/peer land in different
  /// nodes of `ranks_per_node` consecutive ranks. Runtime metadata — not
  /// part of the binary golden-trace format, so flat goldens are unchanged.
  std::uint32_t ranks_per_node = 0;
  bool poisoned = false;      // a rank threw mid-job; sends may be unmatched
  std::uint64_t dropped = 0;  // events lost to ring-buffer overflow
  std::vector<std::string> phases;
  std::vector<TraceEvent> events;
  /// Comm/comp overlap windows of pipelined runs, in (rank, post_ordinal)
  /// order; empty for unpipelined jobs. Serialized by the binary exporter
  /// only when non-empty, so committed unpipelined goldens are unchanged.
  std::vector<OverlapInterval> overlaps;

  const std::string& phase_name(const TraceEvent& e) const {
    return phases[e.phase];
  }
};

/// Extracts the sub-trace of world ranks [rank_begin, rank_end) from a
/// world-shaped trace: events recorded by ranks inside the range, with rank
/// and peer rebased by -rank_begin and the canonical phase table rebuilt
/// from the phases the extracted events actually use. When the range hosted
/// one streamed job (disjoint-range jobs never message across range
/// boundaries), the result is bitwise identical — job_id aside — to the
/// trace of the same job run solo on a world of the same size, which is
/// what lets streamed jobs keep the golden-trace guarantees per job.
JobTrace extract_rank_range(const JobTrace& world_trace, int rank_begin,
                            int rank_end);

namespace detail {

/// Fixed-capacity single-producer/single-consumer event ring. The producer
/// is the owning rank's worker thread; the consumer is the between-jobs
/// drain. Overflow drops the event and counts it — tracing never blocks or
/// reallocates on the communication path.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  /// Producer side. Returns false (and counts a drop) when full.
  bool try_push(const TraceEvent& e);

  /// Consumer side: appends every pending event (ordinal order) to `out`.
  void drain(std::vector<TraceEvent>& out);

  /// Drops since the last reset_dropped().
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  void reset_dropped() { dropped_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<TraceEvent> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};  // consumer index
  std::atomic<std::uint64_t> tail_{0};  // producer index
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace detail

/// Per-world trace state: one ring and ordinal counter per rank. Owned by
/// World when tracing is enabled; record() is called from rank threads
/// (each touching only its own slot), begin_ranks()/drain_ranks() only on
/// idle ranks.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 15;

  /// `ledger` owns the phase table the events' ids index; it must outlive
  /// the sink. `physical_ranks` stamps drained JobTraces with the world's
  /// fold target (0 = unfolded).
  TraceSink(const CostLedger& ledger, int num_ranks,
            std::size_t capacity_per_rank, std::uint32_t physical_ranks = 0);

  /// Starts job `job_id`'s epoch on ranks [rank_begin, rank_end): discards
  /// their undrained events and resets their ordinals and overlap windows to
  /// a fresh world's state, so a job can start on a freed rank subset while
  /// other subsets are mid-flight. The ranks being reset must be idle (their
  /// previous job fully drained); other ranks' producer state is untouched.
  void begin_ranks(int rank_begin, int rank_end, std::uint64_t job_id);

  /// Collects what ranks [rank_begin, rank_end) recorded since their
  /// begin_ranks() into a world-shaped JobTrace stamped `job_id` with a
  /// canonical phase table (other ranks contribute no events; feed the
  /// result to extract_rank_range for the solo-shaped sub-trace of a
  /// partial range). The drained ranks must be idle; concurrently running
  /// ranks are safe — their rings are untouched and the ledger's phase
  /// table is read under its lock.
  JobTrace drain_ranks(bool poisoned, int rank_begin, int rank_end,
                       std::uint64_t job_id);

  /// drain_ranks over every rank, stamped with the job begun last: the
  /// trace of a whole-world job (World::run). Must not run concurrently
  /// with a job.
  JobTrace drain(bool poisoned) {
    return drain_ranks(poisoned, 0, ranks(), job_id_);
  }

  /// Records one message endpoint under the ledger phase id `phase` the
  /// operation captured when it was posted. Called only by `rank`'s worker
  /// thread.
  void record(int rank, int peer, OpKind kind, Dir dir, std::uint64_t words,
              std::uint32_t phase);

  /// The next event ordinal `rank` will record (brackets overlap windows).
  /// Called only by `rank`'s worker thread.
  std::uint64_t ordinal(int rank) const { return per_rank_[rank]->ordinal; }

  /// Records one comm/comp overlap window. Called only by `rank`'s worker
  /// thread; drained into JobTrace::overlaps alongside the events.
  void record_overlap(const OverlapInterval& interval);

  /// Stamps subsequently drained JobTraces with the world's two-level
  /// topology (0 = flat). Between jobs only.
  void set_ranks_per_node(std::uint32_t ranks_per_node) {
    ranks_per_node_ = ranks_per_node;
  }

  int ranks() const { return static_cast<int>(per_rank_.size()); }

 private:
  struct PerRank {
    explicit PerRank(std::size_t capacity) : ring(capacity) {}
    detail::TraceRing ring;
    std::uint64_t ordinal = 0;    // written only by the owning rank
    // Overlap windows are rare (one per pipelined chunk), so a plain vector
    // written by the owning rank and read by the between-jobs drain is safe.
    std::vector<OverlapInterval> overlaps;
  };

  /// Remaps `t.events` from ledger phase ids onto a canonical phase table
  /// (the phases the job used, sorted by name) so equal schedules yield
  /// bitwise-equal traces.
  void canonicalize_phases(JobTrace& t) const;

  const CostLedger& ledger_;
  std::vector<std::unique_ptr<PerRank>> per_rank_;
  std::uint32_t physical_ranks_ = 0;
  std::uint32_t ranks_per_node_ = 0;  // two-level topology; 0 = flat
  std::uint64_t job_id_ = 0;  // the job begun last
};

}  // namespace parsyrk::comm

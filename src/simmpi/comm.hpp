// SPMD message-passing runtime (the MPI substitute).
//
// A World owns P mailboxes and a cost ledger; World::run executes an SPMD
// body on P OS threads, each receiving a Comm bound to its rank. Comms
// support point-to-point send/recv and the collectives the paper's
// algorithms use, implemented as explicit pairwise-exchange round schedules
// (latency P−1, bandwidth (1−1/P)·w — §3.2) plus the latency-efficient
// variants discussed in §6 (Bruck all-gather, butterfly all-to-all).
// Sub-communicators (Comm::split) give the 3D algorithm its row/column
// slices. Every word that crosses a rank boundary is recorded in the ledger;
// this measured volume is the quantity Theorem 1 bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "simmpi/ledger.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/trace.hpp"
#include "simmpi/worker_pool.hpp"
#include "support/check.hpp"

namespace parsyrk::verify {
class Verifier;
}

namespace parsyrk::comm {

class World;
class Comm;

namespace detail {

/// State of one in-flight operation (defined in comm.cpp): the posting
/// context (world, group, rank, ledger phase id, op kind) captured at
/// creation, plus the operation's round schedule and partial results. It is
/// the only code that posts, receives and accounts a message.
struct OpState;

}  // namespace detail

/// Handle to an in-flight nonblocking operation (isend/irecv/icollectives).
/// Cheap to copy; all copies observe the same state. A handle must be
/// driven to completion (wait(), or test() until true) before the SPMD body
/// returns — an abandoned incomplete handle leaves its messages undrained.
class Request {
 public:
  Request() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the operation has completed (no progress is attempted).
  bool done() const;

  /// Makes as much progress as possible without blocking (posts due sends,
  /// matches any already-arrived receives — out-of-order completion within
  /// the current round is fine) and returns whether the operation is now
  /// complete. Safe to call in any interleaving across handles.
  bool test();

  /// Drives the operation to completion, blocking on outstanding receives.
  /// Handles on one communicator must be waited in posting order
  /// (non-overtaking): peers drive their handles in posting order too, so
  /// overtaking can deadlock. Throws RankAborted when a peer rank failed.
  void wait();

  /// wait(), then moves out the flat result (reduce_scatter / all_gather /
  /// irecv payload; empty for isend).
  std::vector<double> take();

  /// wait(), then moves out the per-rank result (all_to_all_v).
  std::vector<std::vector<double>> take_parts();

 private:
  friend class Comm;
  /// Posts the operation's first-round sends eagerly (MPI-style: posting
  /// happens at handle creation, not when the handle is first driven).
  explicit Request(std::shared_ptr<detail::OpState> state);

  std::shared_ptr<detail::OpState> state_;
};

namespace detail {

/// State shared by the member ranks of one communicator group.
struct Group {
  std::uint64_t id = 0;
  std::vector<int> world_ranks;  // group rank -> world rank

  // Central sense-reversing barrier; `poisoned` aborts waiters when a peer
  // rank failed mid-run.
  std::mutex bar_mu;
  std::condition_variable bar_cv;
  int bar_count = 0;
  std::uint64_t bar_gen = 0;
  bool poisoned = false;

  // Per-member count of Comm handles obtained for this group in the
  // current job. Each handle instance draws its collective tags from a
  // disjoint block indexed by this generation, so two handles to the same
  // group (repeated identical splits) can never collide, and World resets
  // the counts at every job start so a reused world replays exactly the
  // tag sequence of a fresh one. Each rank touches only its own slot.
  std::vector<std::uint32_t> handle_gen;
};

}  // namespace detail

namespace detail {

/// Shared state of one rank-range job (World::launch_ranks, which
/// World::run also goes through): the per-rank completion count plus the
/// failure verdict, written by the pool workers and read by the launching
/// thread through RangeJob.
struct RangeJobState {
  World* world = nullptr;
  int rank_begin = 0;
  int rank_end = 0;
  std::uint64_t job_id = 0;
  std::function<void(Comm&)> body;
  std::function<void()> on_complete;  // fired once by the last rank
  CostLedger::Snapshot verify_snap;   // job-begin ledger state (verify mode)

  std::mutex mu;
  std::condition_variable cv;
  int pending = 0;
  std::exception_ptr error;  // lowest failing rank's exception
  int error_rank = -1;       // group-relative rank of `error`
  bool any_aborted = false;  // a rank unwound with RankAborted
};

}  // namespace detail

/// Handle to one job launched on a rank range of a World
/// (World::launch_ranks). Completion is observed either by polling done(),
/// blocking in wait() or World::join(), or through the on_complete callback
/// the job was launched with. Unlike World::join, wait() reports failure
/// through failed() / error() rather than rethrowing it — the launching
/// thread is not inside the job when it dies.
class RangeJob {
 public:
  RangeJob() = default;

  bool valid() const { return state_ != nullptr; }
  int rank_begin() const { return state_->rank_begin; }
  int rank_end() const { return state_->rank_end; }
  /// World::jobs_run() value assigned to this job at launch.
  std::uint64_t job_id() const { return state_->job_id; }

  /// True once every rank of the job has returned.
  bool done() const;

  /// Blocks until every rank has returned, then (on a clean completion)
  /// checks the job's mailboxes drained — the one end-of-job check, which
  /// World::join runs too. Under verify mode the range's end-of-job
  /// analyses run here as well, its ledger balance (per tier on a
  /// topology'd world) summed over the range alone; findings are recorded
  /// as the job's error() (a verify::VerifyError), not thrown. Never throws
  /// the job's error; inspect failed()/aborted()/error() after.
  void wait();

  /// A rank threw a real (non-RankAborted) exception. Valid once done().
  bool failed() const { return state_->error != nullptr; }
  /// A rank unwound with RankAborted (poisoned by a failure elsewhere).
  bool aborted() const { return state_->any_aborted; }
  /// The lowest failing rank's exception (nullptr when !failed()).
  std::exception_ptr error() const { return state_->error; }

 private:
  friend class World;
  explicit RangeJob(std::shared_ptr<detail::RangeJobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::RangeJobState> state_;
};

/// Per-rank handle to a communicator. Cheap to copy.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(group_->world_ranks.size()); }
  int world_rank() const { return group_->world_ranks[rank_]; }
  World& world() const { return *world_; }

  /// Labels subsequent traffic of this rank in the cost ledger (and the
  /// trace, which stamps the ledger's phase ids). Every job starts in
  /// "default".
  void set_phase(const std::string& phase);

  /// Buffered (eager) point-to-point send: isend(), whose handle is born
  /// complete. Self-sends are disallowed; ranks keep their own data local.
  /// User tags are non-negative.
  void send(int dst, int tag, std::span<const double> data);
  /// Blocking receive: irecv(src, tag).take().
  std::vector<double> recv(int src, int tag);

  void barrier();

  // ---- Collectives (pairwise exchange; the paper's §3.2 assumptions) ----

  /// Personalized all-to-all: send[i] goes to rank i; returns recv where
  /// recv[i] came from rank i. Blocks may have arbitrary (even zero) sizes.
  std::vector<std::vector<double>> all_to_all_v(
      const std::vector<std::vector<double>>& send);

  /// Reduce-scatter: every rank passes a buffer laid out as size()
  /// consecutive blocks with the given sizes (identical on all ranks);
  /// returns this rank's block summed over all ranks.
  std::vector<double> reduce_scatter(std::span<const double> data,
                                     const std::vector<std::size_t>& sizes);

  /// Reduce-scatter with equal block sizes; data.size() % size() == 0.
  std::vector<double> reduce_scatter_equal(std::span<const double> data);

  /// All-gather with equal contributions; returns the size()*mine.size()
  /// concatenation in rank order.
  std::vector<double> all_gather(std::span<const double> mine);

  /// All-gather with per-rank contribution sizes; returns one vector per rank.
  std::vector<std::vector<double>> all_gather_v(std::span<const double> mine);

  // ---- Latency-efficient variants (§6 extensions, E12 ablation) ----

  /// Bruck concatenation all-gather: ceil(log2 P) rounds, (1−1/P)·w words.
  std::vector<double> all_gather_bruck(std::span<const double> mine);

  /// Bruck-style Reduce-Scatter (the §6 observation: an adaptation of
  /// Bruck's concatenation algorithm gives bandwidth AND latency optimality
  /// for Reduce-Scatter at any P): ceil(log2 P) rounds, (1−1/P)·w words,
  /// equal block sizes (data.size() % size() == 0). This is the mirror of
  /// all_gather_bruck with summation folded into each round.
  std::vector<double> reduce_scatter_bruck(std::span<const double> data);

  /// Bruck (butterfly) all-to-all with equal block sizes: ceil(log2 P)
  /// rounds, ~(w/2)·log2 P words. `block` is the per-destination block size.
  std::vector<double> all_to_all_butterfly(std::span<const double> send,
                                           std::size_t block);

  // ---- Rooted collectives ----

  /// Binomial-tree broadcast; on non-root ranks `data` supplies the size.
  void bcast(std::span<double> data, int root);

  /// Binomial-tree sum-reduce to root; returns the reduction on root, empty
  /// elsewhere.
  std::vector<double> reduce(std::span<const double> data, int root);

  /// Linear gather of variable-size contributions to root (rank order).
  std::vector<std::vector<double>> gather(std::span<const double> mine,
                                          int root);

  /// Linear scatter from root; `parts` is only read on root.
  std::vector<double> scatter(const std::vector<std::vector<double>>& parts,
                              int root);

  // ---- Hierarchical collectives (two-level topology) ----
  //
  // sdpb shared_memory_comm-style schedules for a nodes × ranks-per-node
  // machine: members first reduce/gather within their node (cheap intra
  // tier), node leaders alone exchange aggregates (scarce inter tier), then
  // leaders scatter within the node. The busiest node's inter volume drops
  // from R·T·(P−R)/P (flat pairwise, R ranks per node) to T·(N−1)/N. Both
  // fall back to the flat pairwise schedule when hier_available() is false.

  /// True when the world has a topology (ranks_per_node > 1) and this
  /// communicator's members form >= 2 complete node-aligned groups, i.e.
  /// the hierarchical collectives will actually run the two-level schedule.
  bool hier_available() const;

  /// Hierarchical reduce-scatter: intra-node binomial reduce to the node
  /// leader, leader-only pairwise reduce-scatter of per-node aggregate
  /// blocks, intra-node scatter of member segments. Same semantics as
  /// reduce_scatter() (summation order differs, so results are exact for
  /// integer-valued data but may differ in final bits otherwise).
  std::vector<double> reduce_scatter_hier(std::span<const double> data,
                                          const std::vector<std::size_t>& sizes);

  /// Hierarchical personalized all-to-all: members serialize per-node
  /// payload blobs, node leaders gather them, exchange node-to-node
  /// aggregates pairwise, and scatter regrouped per-member streams. Same
  /// semantics as all_to_all_v() (payloads are moved verbatim).
  std::vector<std::vector<double>> all_to_all_v_hier(
      const std::vector<std::vector<double>>& send);

  /// Splits into sub-communicators by color; ranks sharing a color form a
  /// group ordered by (key, rank). Collective over this communicator.
  Comm split(int color, int key);

  // ---- Nonblocking primitives (the icollect engine) ----
  //
  // Every blocking operation above — send/recv and the collectives — is a
  // thin create-then-wait() wrapper over this engine, so blocking and
  // nonblocking runs share one schedule: the same tags, the same per-rank
  // message order, the same ledger volume. A handle captures one ledger
  // phase id (which the trace stamps too) and its operation kind at POST
  // time; every message it later moves is attributed to that posting
  // context even if the rank has since changed phase or a ledger snapshot
  // was taken at a job boundary (in-flight attribution).
  //
  // Completion discipline: handles on one communicator must be *waited* in
  // posting order (non-overtaking) — peers drive theirs in posting order
  // too, so overtaking a pending collective can deadlock. test() never
  // blocks and is safe in any interleaving.

  /// Eager nonblocking send: the payload is buffered immediately, so the
  /// handle is born complete (wait() is a no-op). Exists for symmetry and
  /// for fuzzing the handle lifecycle.
  Request isend(int dst, int tag, std::span<const double> data);

  /// Nonblocking receive; take() yields the payload.
  Request irecv(int src, int tag);

  /// Nonblocking pairwise reduce-scatter; take() yields this rank's summed
  /// block. Block sizes as in reduce_scatter().
  Request ireduce_scatter(std::span<const double> data,
                          const std::vector<std::size_t>& sizes);

  /// Nonblocking pairwise all-gather; take() yields the rank-order
  /// concatenation.
  Request iall_gather(std::span<const double> mine);

  /// Nonblocking personalized all-to-all; take_parts() yields one vector
  /// per source rank.
  Request iall_to_all_v(const std::vector<std::vector<double>>& send);

  // ---- Overlap windows (pipelined-execution trace support) ----

  /// Marks the start of a comm/comp overlap window: returns this rank's
  /// current trace ordinal (0 when tracing is off).
  std::uint64_t overlap_begin() const;

  /// Records the window [token, current ordinal) as pipelined chunk `chunk`
  /// that moved `words` while `flops` of kernel work ran under it. No-op
  /// when tracing is off.
  void overlap_end(std::uint64_t token, std::uint32_t chunk,
                   std::uint64_t words, std::uint64_t flops) const;

 private:
  friend class World;
  friend class Request;
  friend struct detail::OpState;
  Comm(World* world, std::shared_ptr<detail::Group> group, int rank,
       std::uint32_t handle_gen)
      : world_(world),
        group_(std::move(group)),
        rank_(rank),
        tag_base_(static_cast<std::int64_t>(handle_gen) * kOpsPerHandle) {}

  /// Reserves a tag block for the next collective operation. Tags are
  /// negative (disjoint from user tags) and carved per handle generation:
  /// handle g's ops draw from [g·kOpsPerHandle, (g+1)·kOpsPerHandle), so
  /// tag blocks never collide across handles of one group, and the per-job
  /// generation reset keeps the space bounded on a reused world.
  std::int64_t next_op_tag() {
    PARSYRK_CHECK_MSG(op_seq_ < kOpsPerHandle,
                      "collective tag space exhausted: more than ",
                      kOpsPerHandle, " collectives on one communicator "
                      "handle within a single job");
    return -((tag_base_ + ++op_seq_) * kTagStride);
  }

  /// Verify-mode hook, called right after next_op_tag() by every collective
  /// builder with the op's *structural* kind and a kind-specific layout
  /// signature. No-op unless the world is verifying.
  void note_collective(OpKind kind, std::uint64_t signature,
                       std::int64_t count, int root = -1) const;

  /// Allocates engine state for one operation, capturing the posting
  /// context (the phase id is read from the ledger).
  std::shared_ptr<detail::OpState> make_op(OpKind kind) const;

  static constexpr std::int64_t kTagStride = 4096;
  static constexpr std::int64_t kOpsPerHandle = std::int64_t{1} << 20;

  World* world_;
  std::shared_ptr<detail::Group> group_;
  int rank_;
  std::int64_t tag_base_ = 0;  // handle_gen · kOpsPerHandle
  std::int64_t op_seq_ = 0;  // advances identically on all ranks (collectives)
  // Communicator setup (split's color/key exchange) is bookkeeping, not
  // algorithm traffic; it is excluded from the cost ledger, matching the
  // paper's accounting where the processor grid exists a priori.
  bool mute_ledger_ = false;
};

/// Owns the mailboxes, ledger, and group registry; runs SPMD bodies on
/// workers leased once from a WorkerPool (the process-shared pool by
/// default), so repeated runs reuse the same warm, parked threads.
///
/// A World may be *folded*: num_ranks logical ranks modelled on a smaller
/// machine of `physical` processors, logical rank r living on physical rank
/// r % physical. The SPMD body still runs one OS thread per logical rank
/// (co-folded ranks executed sequentially would deadlock on blocking
/// collectives — the threads are simulation substrate, not the machine
/// model), but the *accounting* is physical: messages between co-located
/// logical ranks are intra-processor moves and skip the ledger and trace,
/// and CostSummary aggregates per physical rank. This is what lets the
/// planner run a communication-optimal c(c+1)·p2 grid on an awkward
/// physical processor count.
class World {
 public:
  /// Leases size() workers from the process-wide shared pool.
  explicit World(int num_ranks);
  /// Leases from a caller-owned pool (benchmarks and tests use this to
  /// model the old fresh-threads-per-job execution, or to isolate pools).
  World(int num_ranks, WorkerPool& pool);
  /// Folded world: num_ranks logical ranks on `physical` physical ranks
  /// (1 <= physical <= num_ranks), round-robin.
  World(int num_ranks, int physical);
  World(int num_ranks, int physical, WorkerPool& pool);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return static_cast<int>(mailboxes_.size()); }
  /// Physical processor count the accounting folds onto (== size() when
  /// unfolded).
  int physical_size() const { return physical_; }
  bool folded() const { return physical_ < size(); }
  /// Physical rank hosting logical rank r.
  int fold(int logical_rank) const { return logical_rank % physical_; }
  /// Whether two logical ranks share a physical rank (their traffic is
  /// intra-processor and not communication).
  bool colocated(int a, int b) const {
    return a % physical_ == b % physical_;
  }

  // ---- Two-level topology (nodes × ranks-per-node) ----

  /// Groups the physical processors into nodes of `ranks_per_node`
  /// consecutive processors each. 1 (the default) is the flat machine —
  /// every rank its own node — whose accounting is byte-identical to the
  /// pre-topology runtime. Requires ranks_per_node to divide size(), and an
  /// unfolded world when > 1 (folded worlds model co-location already).
  /// Set between jobs only.
  void set_topology(int ranks_per_node);
  int ranks_per_node() const { return ranks_per_node_; }
  int nodes() const { return physical_ / ranks_per_node_; }
  /// Node hosting logical rank r.
  int node_of(int logical_rank) const {
    return (logical_rank % physical_) / ranks_per_node_;
  }
  /// Whether a message between these ranks crosses the scarce inter-node
  /// link (on the flat topology every non-colocated pair does).
  bool inter_node(int a, int b) const { return node_of(a) != node_of(b); }
  Tier tier_between(int a, int b) const {
    return inter_node(a, b) ? Tier::kInter : Tier::kIntra;
  }

  CostLedger& ledger() { return ledger_; }
  /// Jobs executed by this world so far (each run() is one job).
  std::uint64_t jobs_run() const { return jobs_run_; }

  // ---- Per-message tracing (opt-in; see simmpi/trace.hpp) ----

  /// Starts recording every ledger-counted message into per-rank ring
  /// buffers. Idempotent (a second call keeps the existing sink). Must be
  /// called between jobs. When off, the communication path pays a single
  /// null-pointer branch.
  void enable_tracing(std::size_t capacity_per_rank = TraceSink::kDefaultCapacity);
  /// Stops recording and discards any undrained events. Between jobs only.
  void disable_tracing();
  bool tracing() const { return trace_sink_ != nullptr; }
  /// The sink while tracing is enabled (nullptr otherwise). Drain between
  /// jobs to collect the last job's events.
  TraceSink* trace_sink() { return trace_sink_.get(); }

  // ---- SPMD protocol verification (opt-in; see verify/verifier.hpp) ----

  /// Attaches the protocol verifier: collective matching, deadlock
  /// detection (blocking waits become watchdogged), leak analysis at job
  /// boundaries, and topology routing checks. Idempotent; between jobs
  /// only. Also enabled automatically at construction when PARSYRK_VERIFY=1
  /// is set in the environment. Violations surface as verify::VerifyError
  /// through the normal failure path (poison + rethrow), so a broken
  /// schedule diagnoses instead of hanging, and the world stays usable.
  void enable_verify();
  bool verifying() const { return verifier_ != nullptr; }
  /// The verifier while enabled (nullptr otherwise).
  verify::Verifier* verifier() const { return verifier_.get(); }

  /// Executes `body` as one job: launch_ranks(0, size(), body), then
  /// join(). The SPMD bodies are handed to the size() already-parked pool
  /// workers (condition-variable handoff — no thread is created or joined
  /// here) and run one per rank.
  void run(const std::function<void(Comm&)>& body);

  /// Waits for `job`, launched on this world, through RangeJob::wait (every
  /// rank of the job has returned; the end-of-job check). The job must be
  /// the only one in flight: if a rank throws, the runtime is poisoned
  /// world-wide so ranks blocked in receives or barriers unwind with
  /// RankAborted, and after every rank of the job finishes, join() resets
  /// the whole runtime so the World and its leased workers stay usable for
  /// the next job, then rethrows the original exception (lowest failing
  /// rank wins), or RankAborted when ranks only aborted.
  void join(RangeJob& job);

  // ---- Streamed execution (work-conserving scheduling substrate) ----
  //
  // launch_ranks is the mid-round interleaving primitive: it starts a job
  // on a rank subset while other disjoint subsets are still mid-flight, so
  // a scheduler can dispatch the next queued job the moment a subset
  // drains instead of barriering on the slowest member of a round. The
  // caller (one scheduling thread) owns the placement discipline:
  //
  //   - ranges of concurrently in-flight jobs must be disjoint, and a
  //     range may be relaunched only after its previous job completed;
  //   - World::run, set_topology, enable/disable_tracing, and a
  //     whole-world launch still require a fully quiesced world;
  //   - after any streamed job fails or aborts, no further launches until
  //     every in-flight job completed and recover_after_failure() ran
  //     (poisoning is world-wide, so innocent in-flight jobs abort too).
  //
  // Each launch is one job epoch for its range only: the range's ledger
  // phases return to "default", the trace sink's range ordinals reset, and
  // the handle generations of every group fully contained in the range
  // reset, so the job replays exactly the tag and trace schedule of the
  // same job run solo on a fresh world of the range's size — the property
  // that keeps streamed results bitwise-identical.

  /// Launches `body` on ranks [rank_begin, rank_end) and returns
  /// immediately. A partial range needs an unfolded world; on a topology'd
  /// one, the range's nodes are the world nodes its ranks sit on. The whole
  /// world may be folded. Each rank's Comm spans the range (size ==
  /// rank_end - rank_begin, rank 0 == world rank rank_begin).
  /// `on_complete`, if given, fires exactly once on the last finishing
  /// rank's worker thread — it must be cheap and must not launch jobs or
  /// touch the World directly (signal the scheduling thread instead).
  RangeJob launch_ranks(int rank_begin, int rank_end,
                        std::function<void(Comm&)> body,
                        std::function<void()> on_complete = {});

  /// Clears poison and undelivered messages after a job failed, restoring
  /// the world for further launches (join() calls it itself). Call only
  /// once every in-flight RangeJob has completed.
  void recover_after_failure();

 private:
  friend class Comm;
  friend class RangeJob;
  friend struct detail::OpState;  // the engine posts/pops directly

  Mailbox& mailbox(int world_rank) { return *mailboxes_[world_rank]; }

  /// Returns the group registered under `signature`, creating it (with the
  /// given members) on first use. Membership must match on every call with
  /// the same signature.
  std::shared_ptr<detail::Group> intern_group(const std::string& signature,
                                              const std::vector<int>& members);

  /// Failure propagation: wakes every blocked receive and barrier.
  void poison_all();

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  int physical_ = 1;  // physical ranks the accounting folds onto
  int ranks_per_node_ = 1;  // two-level topology; 1 = flat
  CostLedger ledger_;
  std::unique_ptr<TraceSink> trace_sink_;
  std::unique_ptr<verify::Verifier> verifier_;
  WorkerPool::Lease lease_;
  std::shared_ptr<detail::Group> world_group_;
  std::uint64_t jobs_run_ = 0;

  std::mutex groups_mu_;
  std::map<std::string, std::shared_ptr<detail::Group>> group_registry_;
  std::uint64_t next_group_id_ = 1;
};

}  // namespace parsyrk::comm

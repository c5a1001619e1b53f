// Dynamic SPMD protocol verifier.
//
// An opt-in analysis layer the message-passing runtime hooks into when
// verification is enabled (World::enable_verify / PARSYRK_VERIFY=1). The
// verifier sees only POD facts — ranks, group ids, tags, kinds, counts — so
// it depends on nothing above support/ and simmpi can link it without a
// cycle. Four analyses:
//
//   1. Collective matching. Every collective a rank posts is keyed by its
//      tag-space identity (group, handle generation, op sequence) — exactly
//      the identity message matching relies on — and compared against what
//      the first poster recorded: kind, element-count signature, root. The
//      first divergent rank throws a VerifyError naming both sides. At scope
//      end, members of one handle must also have posted the same *number* of
//      collectives.
//
//   2. Deadlock detection. Blocking receives and barriers that stall past a
//      watchdog tick register in a wait-for graph (rank -> the rank(s) that
//      can unblock it). A cycle of blocked ranks, confirmed stable across
//      ticks with every awaited message verified absent, is reported with
//      the full rank-annotated cycle instead of hanging the test. Waits on
//      ranks that already finished the job (stranded waits) are reported
//      immediately; a global all-blocked stall is the backstop.
//
//   3. Leak analysis. Abandoned nonblocking requests report through
//      on_request_abandoned as soon as their state dies; undrained mailbox
//      messages are collected by the runtime at scope end (the runtime owns
//      the mailboxes) via message_leak(). Both surface from end_scope.
//
//   4. Topology routing. Inside a hierarchical collective (on_hier_begin/
//      end), an inter-node message with a non-leader endpoint throws
//      immediately — the two-level schedules must route scarce-tier words
//      through node leaders only. Ledger balance is checked by the runtime
//      at scope end (the ledger lives there) and folded into the report.
//
// Hot-path cost when enabled: one null-check per message plus the inline
// topology test below; blocked ranks only touch the verifier after a tick
// (default 25 ms) of no progress, so the fast path never locks.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "verify/report.hpp"

namespace parsyrk::verify {

struct VerifyOptions {
  /// How long a blocking wait sleeps before (re-)consulting the deadlock
  /// analysis. Smaller = faster detection, more registry churn.
  std::chrono::milliseconds tick{25};
  /// A candidate deadlock cycle must persist at least this long (with every
  /// participant's unblock counter frozen and every awaited message absent)
  /// before it is reported. Guards against accusing a rank that was woken
  /// but not yet scheduled.
  std::chrono::milliseconds confirm{200};
  /// Global-stall backstop: when every unfinished rank of a job has been
  /// blocked at least this long with no state change, report kIdleStall
  /// even if no simple cycle through the accuser exists.
  std::chrono::milliseconds stall{2000};
};

/// What a blocked rank is waiting for (one wait-for graph node's out-edges).
struct WaitFor {
  enum class Kind : std::uint8_t { kMessage, kBarrier };
  Kind kind = Kind::kMessage;
  std::uint64_t group = 0;
  // kMessage: the sole rank able to send the awaited envelope.
  int src_world = -1;
  int src_group_rank = -1;
  std::int64_t tag = 0;
  // kBarrier: the generation the rank is parked on.
  std::uint64_t barrier_gen = 0;
};

class Verifier {
 public:
  explicit Verifier(int world_size, VerifyOptions options = {});

  const VerifyOptions& options() const { return options_; }
  int world_size() const { return static_cast<int>(hier_depth_.size()); }

  /// Installed by the runtime: probes whether the envelope
  /// (group, src_group_rank, tag) is currently deliverable to dst_world's
  /// mailbox. Used to re-verify every message edge of a candidate deadlock
  /// before accusing (scan-before-accuse).
  using MessageProbe =
      std::function<bool(int dst_world, std::uint64_t group,
                         int src_group_rank, std::int64_t tag)>;
  void set_message_probe(MessageProbe probe);

  /// Two-level topology of the world (1 = flat). Set between jobs.
  void set_topology(int ranks_per_node);

  /// Registers a communicator group's membership (group rank -> world
  /// rank). Idempotent per id. The world group (id 0) and every interned
  /// group must be registered before their first collective.
  void register_group(std::uint64_t id, std::vector<int> world_ranks);

  // ---- Scopes (one per job epoch) ----

  /// Starts a verification scope covering world ranks [rank_begin,
  /// rank_end): clears collective records of groups fully contained in the
  /// range, rank states, and pending findings attributed to those ranks.
  void begin_scope(int rank_begin, int rank_end, std::uint64_t job);

  /// Ends the scope: collective sequence-length checks for contained
  /// groups plus any deferred findings (request leaks, ...) attributed to
  /// ranks in the range. The caller appends runtime-owned checks (mailbox
  /// leaks, ledger balance) and throws VerifyError if non-empty.
  VerifyReport end_scope(int rank_begin, int rank_end);

  /// Drops all state (failure recovery; the poisoned job's bookkeeping is
  /// meaningless once mailboxes are cleared).
  void clear_all();

  // ---- Rank lifecycle ----

  void on_rank_begin(int world_rank, std::uint64_t job);
  /// `clean` is false when the rank ended by unwinding an exception (its own
  /// failure or a poison abort): such a rank proves nothing about its peers'
  /// protocol, so it never grounds a stranded-wait accusation.
  void on_rank_end(int world_rank, bool clean);

  // ---- Analysis 1: collective matching ----

  struct CollectiveSite {
    std::uint8_t kind = 0;        // comm::OpKind value
    const char* name = "";        // op_kind_name(kind)
    std::uint64_t signature = 0;  // kind-specific count/layout digest
    std::int64_t count = 0;       // representative element count for reports
    int root = -1;                // rooted collectives only
  };

  /// Called once per collective per rank, at tag allocation. Throws
  /// VerifyError on divergence from the first poster of the same
  /// (group, handle_gen, op_seq) slot.
  void on_collective(int world_rank, std::uint64_t group,
                     std::uint32_t handle_gen, std::int64_t op_seq,
                     const CollectiveSite& site);

  // ---- Analysis 2: deadlock detection ----

  void on_barrier_arrive(std::uint64_t group, std::uint64_t gen,
                         int world_rank);
  void on_barrier_release(std::uint64_t group, std::uint64_t gen);

  /// A blocking wait by `world_rank` has stalled for another tick.
  /// `still_waiting` re-checks the awaited condition (mailbox scan /
  /// barrier generation) at accusation time and must be callable under the
  /// verifier's lock. Throws VerifyError when a deadlock, stranded wait, or
  /// global stall is confirmed; returns normally to keep waiting.
  void on_blocked_tick(int world_rank, const WaitFor& wait,
                       const std::function<bool()>& still_waiting);

  /// The wait completed (message arrived / barrier released / unwound).
  void on_unblocked(int world_rank);

  // ---- Analysis 3: leaks ----

  /// A nonblocking operation's state died with rounds outstanding.
  void on_request_abandoned(int world_rank, std::uint64_t group,
                            const char* kind_name, std::size_t rounds_left);

  /// Builds a message-leak finding for an undrained mailbox entry
  /// (called by the runtime at scope end; it owns the mailboxes).
  Finding message_leak(int dst_world, std::uint64_t group, int src_group_rank,
                       std::int64_t tag, std::size_t words) const;

  /// Queues a runtime-produced finding for the next end_scope.
  void add_finding(Finding finding);

  // ---- Analysis 4: topology routing ----

  void on_hier_begin(int world_rank);
  void on_hier_end(int world_rank);

  /// Per-message fast path: leader-routing check. Muted (setup) traffic is
  /// exempt — communicator bookkeeping is not algorithm communication.
  void on_message(int src_world, int dst_world, std::size_t words,
                  bool muted) {
    if (muted || ranks_per_node_ <= 1) return;
    if (hier_depth_[static_cast<std::size_t>(src_world)] == 0) return;
    const int rpn = ranks_per_node_;
    if (src_world / rpn == dst_world / rpn) return;     // intra-node
    if (src_world % rpn == 0 && dst_world % rpn == 0) return;  // leaders
    fail_leader_bypass(src_world, dst_world, words);
  }

 private:
  struct CollKey {
    std::uint64_t group = 0;
    std::uint32_t gen = 0;
    std::int64_t seq = 0;
    bool operator==(const CollKey&) const = default;
  };
  struct CollKeyHash {
    std::size_t operator()(const CollKey& k) const {
      std::uint64_t h = k.group * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<std::uint64_t>(k.gen) + 0x517cc1b727220a95ull) +
           (h << 6) + (h >> 2);
      h ^= (static_cast<std::uint64_t>(k.seq) + 0x2545f4914f6cdd1dull) +
           (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  struct CollRecord {
    std::uint8_t kind = 0;
    std::string name;
    std::uint64_t signature = 0;
    std::int64_t count = 0;
    int root = -1;
    int first_rank = -1;  // world rank that defined the slot
  };
  struct HandleKey {
    std::uint64_t group = 0;
    std::uint32_t gen = 0;
    bool operator==(const HandleKey&) const = default;
  };
  struct HandleKeyHash {
    std::size_t operator()(const HandleKey& k) const {
      return static_cast<std::size_t>(k.group * 0x9e3779b97f4a7c15ull ^
                                      (static_cast<std::uint64_t>(k.gen)
                                       << 17));
    }
  };

  enum class RankPhase : std::uint8_t { kIdle, kRunning, kBlocked, kFinished };
  struct RankState {
    RankPhase phase = RankPhase::kIdle;
    bool clean_end = false;      // kFinished via normal return, not unwinding
    std::uint64_t job = 0;
    std::uint64_t unblocks = 0;  // bumps on every transition out of kBlocked
    WaitFor wait;                // valid while kBlocked
    std::chrono::steady_clock::time_point blocked_since{};
  };

  /// A deadlock accusation under confirmation: the cycle (or stall set)
  /// plus each member's unblock counter at first observation.
  struct Candidate {
    bool valid = false;
    bool stall = false;  // kIdleStall candidate (whole job blocked)
    std::vector<int> members;
    std::vector<std::uint64_t> counters;
    std::chrono::steady_clock::time_point first_seen{};
  };

  [[noreturn]] void fail_leader_bypass(int src_world, int dst_world,
                                       std::size_t words);
  /// Out-edges of a blocked rank in the wait-for graph. Caller holds mu_.
  std::vector<int> wait_edges_locked(int world_rank) const;
  /// True when every message edge of every member is verified absent and
  /// every barrier edge still open. Caller holds mu_.
  bool edges_still_blocked_locked(const std::vector<int>& members) const;
  std::string describe_wait_locked(int world_rank) const;
  [[noreturn]] void throw_deadlock_locked(int accuser,
                                          const std::vector<int>& members,
                                          bool stall, std::uint64_t job);

  const VerifyOptions options_;
  MessageProbe probe_;

  // Per-rank hierarchical-collective nesting depth; each slot is written
  // and read only by its own rank's thread. `ranks_per_node_` changes only
  // between jobs. Neither needs mu_.
  std::vector<int> hier_depth_;
  int ranks_per_node_ = 1;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<int>> groups_;
  std::unordered_map<CollKey, CollRecord, CollKeyHash> collectives_;
  // Per (group, handle generation) per world rank: collectives posted.
  std::unordered_map<HandleKey, std::unordered_map<int, std::int64_t>,
                     HandleKeyHash>
      posted_;
  // Per (group, barrier generation): world ranks arrived.
  std::unordered_map<HandleKey, std::vector<int>, HandleKeyHash> barriers_;
  std::vector<RankState> ranks_;
  std::vector<Candidate> candidates_;  // per accuser rank
  std::vector<Finding> pending_;
};

}  // namespace parsyrk::verify

#include "simmpi/comm.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "support/check.hpp"
#include "verify/verifier.hpp"

namespace parsyrk::comm {
namespace {

/// Layout digest for collective matching: order-sensitive FNV-1a over the
/// per-rank block sizes, so two ranks agreeing on the total but not the
/// blocking still diverge.
std::uint64_t sizes_signature(const std::vector<std::size_t>& sizes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t s : sizes) {
    h ^= static_cast<std::uint64_t>(s);
    h *= 1099511628211ull;
  }
  return h;
}

/// Blocking mailbox pop, watchdogged under verify mode: waits in verifier
/// ticks, reporting to the deadlock analysis each time the tick expires with
/// the message still absent. on_blocked_tick throws VerifyError once a
/// deadlock / stranded wait is confirmed; otherwise we just keep waiting.
std::vector<double> watched_pop(World* world, Mailbox& mb, const Envelope& env,
                                int self_world, int src_world) {
  verify::Verifier* v = world->verifier();
  if (v == nullptr) return mb.pop(env);
  verify::WaitFor wf;
  wf.kind = verify::WaitFor::Kind::kMessage;
  wf.group = env.comm_id;
  wf.src_world = src_world;
  wf.src_group_rank = env.src;
  wf.tag = env.tag;
  bool registered = false;
  try {
    for (;;) {
      auto got = mb.pop_for(env, v->options().tick);
      if (got) {
        if (registered) v->on_unblocked(self_world);
        return std::move(*got);
      }
      registered = true;
      v->on_blocked_tick(self_world, wf, [&] { return !mb.contains(env); });
    }
  } catch (...) {
    // RankAborted from the poisoned mailbox, or the verifier's own verdict:
    // either way this rank is no longer parked.
    if (registered) v->on_unblocked(self_world);
    throw;
  }
}

/// Appends kLedgerImbalance findings when a quiesced job's double-entry
/// accounting over its ranks [rank_begin, rank_end) does not balance: per
/// phase, words/messages sent must equal words/messages received, both
/// overall and on the inter-node tier. Walks the whole phase table,
/// "default" included (phases without traffic balance trivially).
void append_ledger_balance(const CostLedger& ledger,
                           const CostLedger::Snapshot& snap, int rank_begin,
                           int rank_end, bool check_inter, std::uint64_t job,
                           verify::VerifyReport& report) {
  for (const std::string& phase : ledger.phase_table()) {
    const CostSummary s =
        ledger.summary_since(snap, phase, rank_begin, rank_end);
    const bool balanced = s.total.words_sent == s.total.words_recv &&
                          s.total.msgs_sent == s.total.msgs_recv;
    CostSummary inter;
    bool inter_balanced = true;
    if (check_inter) {
      inter = ledger.inter_summary_since(snap, phase, rank_begin, rank_end);
      inter_balanced = inter.total.words_sent == inter.total.words_recv &&
                       inter.total.msgs_sent == inter.total.msgs_recv;
    }
    if (balanced && inter_balanced) continue;
    verify::Finding f;
    f.kind = verify::FindingKind::kLedgerImbalance;
    f.job = job;
    std::string detail = "phase \"" + phase + "\" does not balance:";
    if (!balanced) {
      detail += " sent " + std::to_string(s.total.words_sent) + " word(s)/" +
                std::to_string(s.total.msgs_sent) + " msg(s), received " +
                std::to_string(s.total.words_recv) + "/" +
                std::to_string(s.total.msgs_recv);
    }
    if (!inter_balanced) {
      detail += " [inter-node tier: sent " +
                std::to_string(inter.total.words_sent) + " word(s)/" +
                std::to_string(inter.total.msgs_sent) + " msg(s), received " +
                std::to_string(inter.total.words_recv) + "/" +
                std::to_string(inter.total.msgs_recv) + "]";
    }
    f.detail = std::move(detail);
    report.findings.push_back(std::move(f));
  }
}

/// RAII window for the verifier's leader-routing check: between
/// construction and destruction, every unmuted inter-node message this rank
/// sends must have leader endpoints.
class HierScope {
 public:
  HierScope(World* world, int world_rank)
      : v_(world->verifier()), rank_(world_rank) {
    if (v_) v_->on_hier_begin(rank_);
  }
  ~HierScope() {
    if (v_) v_->on_hier_end(rank_);
  }
  HierScope(const HierScope&) = delete;
  HierScope& operator=(const HierScope&) = delete;

 private:
  verify::Verifier* v_;
  int rank_;
};

}  // namespace

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(int num_ranks) : World(num_ranks, num_ranks, WorkerPool::shared()) {}

World::World(int num_ranks, WorkerPool& pool)
    : World(num_ranks, num_ranks, pool) {}

World::World(int num_ranks, int physical)
    : World(num_ranks, physical, WorkerPool::shared()) {}

World::World(int num_ranks, int physical, WorkerPool& pool)
    : physical_(physical), ledger_(std::max(num_ranks, 1)) {
  PARSYRK_REQUIRE(num_ranks >= 1, "world size must be positive, got ",
                  num_ranks);
  PARSYRK_REQUIRE(physical >= 1 && physical <= num_ranks,
                  "folded world needs 1 <= physical <= num_ranks; got ",
                  physical, " physical for ", num_ranks, " logical ranks");
  ledger_.set_fold(physical);
  // One OS thread per *logical* rank: co-folded ranks run concurrently (the
  // blocking collectives would deadlock a sequential interleaving); the
  // physical machine is modelled in the accounting, not the thread count.
  lease_ = pool.acquire(num_ranks);
  mailboxes_.reserve(num_ranks);
  for (int i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  world_group_ = std::make_shared<detail::Group>();
  world_group_->id = 0;
  world_group_->world_ranks.resize(num_ranks);
  for (int i = 0; i < num_ranks; ++i) world_group_->world_ranks[i] = i;
  world_group_->handle_gen.assign(num_ranks, 0);
  if (const char* env = std::getenv("PARSYRK_VERIFY");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    enable_verify();
  }
}

World::~World() = default;

void World::enable_verify() {
  if (verifier_) return;
  verifier_ = std::make_unique<verify::Verifier>(size());
  verifier_->set_topology(ranks_per_node_);
  verifier_->register_group(world_group_->id, world_group_->world_ranks);
  {
    std::lock_guard lock(groups_mu_);
    for (auto& [sig, g] : group_registry_) {
      verifier_->register_group(g->id, g->world_ranks);
    }
  }
  // Deadlock edges are re-probed against the live mailboxes before any
  // accusation: an edge whose message is deliverable is slowness, not
  // deadlock. (Lock order: verifier mutex, then mailbox mutex.)
  verifier_->set_message_probe([this](int dst_world, std::uint64_t group,
                                      int src_group_rank, std::int64_t tag) {
    return mailboxes_[dst_world]->contains(
        Envelope{group, src_group_rank, tag});
  });
}

void World::set_topology(int ranks_per_node) {
  PARSYRK_REQUIRE(ranks_per_node >= 1,
                  "topology needs ranks_per_node >= 1, got ", ranks_per_node);
  if (ranks_per_node > 1) {
    PARSYRK_REQUIRE(!folded(),
                    "two-level topology requires an unfolded world (folded "
                    "worlds already model co-location)");
    PARSYRK_REQUIRE(size() % ranks_per_node == 0, "ranks_per_node ",
                    ranks_per_node, " must divide the world size ", size());
  }
  ranks_per_node_ = ranks_per_node;
  ledger_.set_topology(ranks_per_node);
  if (verifier_) verifier_->set_topology(ranks_per_node);
  if (trace_sink_) {
    trace_sink_->set_ranks_per_node(ranks_per_node > 1 ? ranks_per_node : 0);
  }
}

void World::enable_tracing(std::size_t capacity_per_rank) {
  if (trace_sink_) return;
  trace_sink_ = std::make_unique<TraceSink>(ledger_, size(), capacity_per_rank,
                                            folded() ? physical_ : 0);
  if (ranks_per_node_ > 1) {
    trace_sink_->set_ranks_per_node(static_cast<std::uint32_t>(ranks_per_node_));
  }
}

void World::disable_tracing() { trace_sink_.reset(); }

void World::run(const std::function<void(Comm&)>& body) {
  // `body` outlives the job (this call waits for every rank), so the job
  // refers to it instead of copying it.
  RangeJob job = launch_ranks(0, size(), std::cref(body));
  join(job);
}

void World::join(RangeJob& job) {
  job.wait();
  if (job.failed() || job.aborted()) {
    recover_after_failure();
    if (job.failed()) std::rethrow_exception(job.error());
    throw RankAborted();
  }
}

bool RangeJob::done() const {
  std::lock_guard lock(state_->mu);
  return state_->pending == 0;
}

void RangeJob::wait() {
  detail::RangeJobState& st = *state_;
  {
    std::unique_lock lock(st.mu);
    st.cv.wait(lock, [&] { return st.pending == 0; });
  }
  // A clean job consumes every message it causes to be sent. Skipped on
  // failure: poisoned mailboxes legitimately hold undelivered messages
  // until recover_after_failure().
  if (!st.error && !st.any_aborted) {
    // End-of-job verification for the range: the scope's deferred findings
    // (request leaks, sequence-length divergence), undrained messages, and
    // the range's ledger balance (per tier too when the world has a
    // topology). wait() is documented never to throw the job's error, and
    // the service's scheduler thread calls it mid-stream — so findings are
    // recorded as the job's error() (and the range's mailboxes drained to
    // keep the world usable), not thrown.
    if (verify::Verifier* v = st.world->verifier()) {
      verify::VerifyReport report = v->end_scope(st.rank_begin, st.rank_end);
      for (int r = st.rank_begin; r < st.rank_end; ++r) {
        for (const auto& [env, words] : st.world->mailboxes_[r]->pending()) {
          report.findings.push_back(
              v->message_leak(r, env.comm_id, env.src, env.tag, words));
        }
      }
      append_ledger_balance(st.world->ledger_, st.verify_snap, st.rank_begin,
                            st.rank_end,
                            /*check_inter=*/st.world->ranks_per_node() > 1,
                            st.job_id, report);
      if (!report.empty()) {
        for (int r = st.rank_begin; r < st.rank_end; ++r) {
          st.world->mailboxes_[r]->reset();
        }
        std::lock_guard lock(st.mu);
        if (!st.error) {
          st.error = std::make_exception_ptr(
              verify::VerifyError(std::move(report)));
          st.error_rank = 0;
        }
        return;
      }
    }
    for (int r = st.rank_begin; r < st.rank_end; ++r) {
      PARSYRK_CHECK_MSG(st.world->mailboxes_[r]->empty(),
                        "rank ", r, " finished with undrained messages");
    }
  }
}

RangeJob World::launch_ranks(int rank_begin, int rank_end,
                                    std::function<void(Comm&)> body,
                                    std::function<void()> on_complete) {
  PARSYRK_REQUIRE(rank_begin >= 0 && rank_begin < rank_end &&
                      rank_end <= size(),
                  "launch_ranks range [", rank_begin, ", ", rank_end,
                  ") invalid for a world of ", size(), " ranks");
  const bool whole_world = rank_begin == 0 && rank_end == size();
  PARSYRK_REQUIRE(whole_world || !folded(),
                  "launch_ranks on a partial range requires an unfolded "
                  "world (folded accounting spans all ranks)");
  const std::uint64_t job_id = ++jobs_run_;
  ledger_.begin_ranks(rank_begin, rank_end);
  if (trace_sink_) trace_sink_->begin_ranks(rank_begin, rank_end, job_id);

  // One job epoch for this range: reset the handle generations of every
  // group whose members all lie inside it (their ranks are idle by the
  // caller's placement discipline), so the job draws collective tags
  // exactly as the same job would on a fresh world of the range's size.
  {
    std::lock_guard lock(groups_mu_);
    if (whole_world) {
      std::fill(world_group_->handle_gen.begin(),
                world_group_->handle_gen.end(), 0u);
    }
    for (auto& [sig, g] : group_registry_) {
      const bool inside = std::all_of(
          g->world_ranks.begin(), g->world_ranks.end(),
          [&](int r) { return r >= rank_begin && r < rank_end; });
      if (inside) std::fill(g->handle_gen.begin(), g->handle_gen.end(), 0u);
    }
  }
  std::shared_ptr<detail::Group> group;
  if (whole_world) {
    group = world_group_;
  } else {
    std::vector<int> members(rank_end - rank_begin);
    for (int r = rank_begin; r < rank_end; ++r) {
      members[r - rank_begin] = r;
    }
    group = intern_group("range:" + std::to_string(rank_begin) + ":" +
                             std::to_string(rank_end),
                         members);
  }

  auto st = std::make_shared<detail::RangeJobState>();
  st->world = this;
  st->rank_begin = rank_begin;
  st->rank_end = rank_end;
  st->job_id = job_id;
  st->body = std::move(body);
  st->on_complete = std::move(on_complete);
  st->pending = rank_end - rank_begin;
  if (verifier_) {
    verifier_->begin_scope(rank_begin, rank_end, job_id);
    st->verify_snap = ledger_.snapshot();
  }
  for (int r = rank_begin; r < rank_end; ++r) {
    const int gr = r - rank_begin;
    const std::uint32_t gen = group->handle_gen[gr]++;
    lease_.dispatch(r, [this, st, group, gr, gen, r] {
      Comm comm(this, group, gr, gen);
      if (verifier_) verifier_->on_rank_begin(r, st->job_id);
      bool rank_aborted = false;
      std::exception_ptr err;
      try {
        st->body(comm);
      } catch (const RankAborted&) {
        rank_aborted = true;  // secondary victim; the root cause is elsewhere
      } catch (...) {
        err = std::current_exception();
        poison_all();
      }
      if (verifier_) verifier_->on_rank_end(r, !rank_aborted && !err);
      bool last = false;
      {
        std::lock_guard lock(st->mu);
        if (rank_aborted) st->any_aborted = true;
        // Lowest failing rank wins; World::join rethrows it.
        if (err && (st->error_rank < 0 || gr < st->error_rank)) {
          st->error = err;
          st->error_rank = gr;
        }
        last = --st->pending == 0;
      }
      st->cv.notify_all();
      if (last && st->on_complete) st->on_complete();
    });
  }
  return RangeJob(std::move(st));
}

void World::poison_all() {
  for (auto& mb : mailboxes_) mb->poison();
  auto poison_group = [](detail::Group& g) {
    {
      std::lock_guard lock(g.bar_mu);
      g.poisoned = true;
    }
    g.bar_cv.notify_all();
  };
  poison_group(*world_group_);
  std::lock_guard lock(groups_mu_);
  for (auto& [sig, g] : group_registry_) poison_group(*g);
}

void World::recover_after_failure() {
  // The failed job's verification bookkeeping (wait-for graph, collective
  // records, deferred findings) is meaningless once the mailboxes drop
  // their messages; start the next job from a clean slate.
  if (verifier_) verifier_->clear_all();
  for (auto& mb : mailboxes_) mb->reset();
  auto reset_group = [](detail::Group& g) {
    std::lock_guard lock(g.bar_mu);
    g.poisoned = false;
    g.bar_count = 0;
  };
  reset_group(*world_group_);
  std::lock_guard lock(groups_mu_);
  for (auto& [sig, g] : group_registry_) reset_group(*g);
}

std::shared_ptr<detail::Group> World::intern_group(
    const std::string& signature, const std::vector<int>& members) {
  std::lock_guard lock(groups_mu_);
  auto it = group_registry_.find(signature);
  if (it != group_registry_.end()) {
    PARSYRK_CHECK_MSG(it->second->world_ranks == members,
                      "group signature collision: ", signature);
    return it->second;
  }
  auto g = std::make_shared<detail::Group>();
  g->id = next_group_id_++;
  g->world_ranks = members;
  g->handle_gen.assign(members.size(), 0);
  group_registry_.emplace(signature, g);
  if (verifier_) verifier_->register_group(g->id, members);
  return g;
}

// ---------------------------------------------------------------------------
// Comm: point-to-point and barrier
// ---------------------------------------------------------------------------

void Comm::set_phase(const std::string& phase) {
  world_->ledger().set_phase(world_rank(), phase);
}

void Comm::send(int dst, int tag, std::span<const double> data) {
  isend(dst, tag, data);  // born complete
}

std::vector<double> Comm::recv(int src, int tag) {
  return irecv(src, tag).take();
}

void Comm::barrier() {
  auto& g = *group_;
  verify::Verifier* v = world_->verifier();
  std::unique_lock lock(g.bar_mu);
  if (g.poisoned) throw RankAborted();
  const std::uint64_t gen = g.bar_gen;
  if (v) v->on_barrier_arrive(g.id, gen, world_rank());
  if (++g.bar_count == size()) {
    g.bar_count = 0;
    ++g.bar_gen;
    if (v) v->on_barrier_release(g.id, gen);
    g.bar_cv.notify_all();
  } else if (v == nullptr) {
    g.bar_cv.wait(lock, [&] { return g.bar_gen != gen || g.poisoned; });
    if (g.bar_gen == gen && g.poisoned) throw RankAborted();
  } else {
    // Watchdogged park: wake each verifier tick to consult the deadlock
    // analysis (a member finishing the job without arriving here is a
    // stranded wait; a cross-group cycle through this barrier is a
    // deadlock). on_blocked_tick is called holding bar_mu — the verifier
    // never touches barrier state, so the lock order is one-way.
    verify::WaitFor wf;
    wf.kind = verify::WaitFor::Kind::kBarrier;
    wf.group = g.id;
    wf.barrier_gen = gen;
    bool registered = false;
    try {
      while (!g.bar_cv.wait_for(lock, v->options().tick, [&] {
        return g.bar_gen != gen || g.poisoned;
      })) {
        registered = true;
        v->on_blocked_tick(world_rank(), wf,
                           [&] { return g.bar_gen == gen && !g.poisoned; });
      }
    } catch (...) {
      if (registered) v->on_unblocked(world_rank());
      throw;
    }
    if (registered) v->on_unblocked(world_rank());
    if (g.bar_gen == gen && g.poisoned) throw RankAborted();
  }
}

// ---------------------------------------------------------------------------
// Nonblocking engine
// ---------------------------------------------------------------------------
//
// Every collective is described as a list of *rounds*: sends to post, then
// receives to match, then a completion step (accumulate / place / reshape).
// The blocking collectives build the same round lists and immediately
// wait(), so blocking and nonblocking execution share one schedule — same
// tags, same per-rank event order, same ledger volume. Payloads are either
// captured eagerly at construction (pairwise schedules read only the input
// buffer) or built lazily at post time (log-round schedules whose round-k
// payload depends on rounds < k).

namespace detail {

struct OpState {
  struct Send {
    int dst = 0;  // group rank
    std::int64_t tag = 0;
    std::vector<double> payload;                 // used when !build
    std::function<std::vector<double>()> build;  // lazy payload
  };
  struct Recv {
    int src = 0;  // group rank
    std::int64_t tag = 0;
    bool done = false;
    std::vector<double> payload;
  };
  struct Round {
    std::vector<Send> sends;
    std::vector<Recv> recvs;
    std::function<void(Round&)> on_complete;
  };

  // Posting context, captured when the operation is created. Messages the
  // operation moves later are attributed to this context — not to whatever
  // phase the rank has advanced to by completion time.
  World* world = nullptr;
  std::shared_ptr<Group> group;
  int rank = 0;  // group rank of the posting side
  OpKind kind = OpKind::kPointToPoint;
  bool mute = false;
  std::uint32_t phase = CostLedger::kDefaultPhase;  // ledger phase id

  std::vector<Round> rounds;
  std::size_t current = 0;
  bool sends_posted = false;  // of rounds[current]

  // Results, populated by completion steps.
  std::vector<double> flat;                // RS / AG / irecv payload
  std::vector<std::vector<double>> parts;  // per-rank results + scratch

  int world_rank() const { return group->world_ranks[rank]; }
  bool complete() const { return current >= rounds.size(); }

  /// Leak detection: a handle abandoned before completion leaves receives
  /// unmatched (its peers' sends rot in the mailbox) — report it the moment
  /// the state dies. Unwinding ranks (a poisoned or failing job) drop their
  /// handles legitimately, so those stay silent; and the finding is
  /// deferred (not thrown) because destructors must not throw.
  ~OpState() {
    if (complete() || world == nullptr) return;
    verify::Verifier* v = world->verifier();
    if (v == nullptr || std::uncaught_exceptions() > 0) return;
    v->on_request_abandoned(world_rank(), group->id, op_kind_name(kind),
                            rounds.size() - current);
  }

  /// The one accounting step of every counted message endpoint: the ledger
  /// and the trace record it under the posting context. Muted setup traffic
  /// and co-located endpoints (one physical processor under folding: the
  /// data moves within its memory) are delivered but not communication.
  void account(int peer, Dir dir, std::size_t words) {
    const int peer_world = group->world_ranks[peer];
    if (mute || world->colocated(world_rank(), peer_world)) return;
    world->ledger().record(world_rank(), phase, dir, words,
                           world->tier_between(world_rank(), peer_world));
    if (TraceSink* sink = world->trace_sink()) {
      sink->record(world_rank(), peer_world, kind, dir, words, phase);
    }
  }

  void post_send(Send& s) {
    std::vector<double> payload = s.build ? s.build() : std::move(s.payload);
    const int dst_world = group->world_ranks[s.dst];
    if (verify::Verifier* v = world->verifier()) {
      v->on_message(world_rank(), dst_world, payload.size(), mute);
    }
    account(s.dst, Dir::kSend, payload.size());
    Message msg;
    msg.env = Envelope{group->id, rank, s.tag};
    msg.payload = std::move(payload);
    world->mailbox(dst_world).push(std::move(msg));
  }

  void post_current_sends() {
    if (sends_posted) return;
    sends_posted = true;
    for (Send& s : rounds[current].sends) post_send(s);
  }

  /// Appends the p − 1 rounds of a pairwise exchange (§3.2): in round r
  /// this rank sends payload(dst) to dst = rank + r and receives from
  /// src = rank − r (mod p), both under tag tag0 + r, and the round's
  /// completion step runs complete(src, received payload).
  template <class Payload, class Complete>
  void add_pairwise_rounds(std::int64_t tag0, Payload payload,
                           Complete complete) {
    const int p = static_cast<int>(group->world_ranks.size());
    rounds.reserve(rounds.size() + p - 1);
    for (int r = 1; r < p; ++r) {
      const int dst = (rank + r) % p;
      const int src = (rank - r + p) % p;
      Round round;
      round.sends.push_back(
          {.dst = dst, .tag = tag0 + r, .payload = payload(dst), .build = {}});
      round.recvs.push_back({src, tag0 + r});
      round.on_complete = [complete, src](Round& rd) {
        complete(src, rd.recvs[0].payload);
      };
      rounds.push_back(std::move(round));
    }
  }

  void finish_round(Round& r) {
    if (r.on_complete) r.on_complete(r);
    r.sends.clear();
    r.recvs.clear();
    r.on_complete = nullptr;
    ++current;
    sends_posted = false;
  }

  /// Nonblocking progress: posts due sends, matches already-arrived
  /// receives (out of order within the round is fine — completion steps run
  /// only once the whole round is in, in round order, so results stay
  /// deterministic under any test()/wait() interleaving). Returns complete().
  bool try_progress() {
    while (!complete()) {
      Round& r = rounds[current];
      post_current_sends();
      bool ready = true;
      for (Recv& rv : r.recvs) {
        if (rv.done) continue;
        auto got = world->mailbox(world_rank())
                       .try_pop(Envelope{group->id, rv.src, rv.tag});
        if (!got) {
          ready = false;
          continue;
        }
        account(rv.src, Dir::kRecv, got->size());
        rv.payload = std::move(*got);
        rv.done = true;
      }
      if (!ready) return false;
      finish_round(r);
    }
    return true;
  }

  /// Blocking completion: receives are popped in listed order, so a wait()
  /// immediately after creation replays exactly the historical blocking
  /// schedule (golden traces depend on this).
  void wait_all() {
    while (!complete()) {
      Round& r = rounds[current];
      post_current_sends();
      for (Recv& rv : r.recvs) {
        if (rv.done) continue;
        auto payload = watched_pop(world, world->mailbox(world_rank()),
                                   Envelope{group->id, rv.src, rv.tag},
                                   world_rank(), group->world_ranks[rv.src]);
        account(rv.src, Dir::kRecv, payload.size());
        rv.payload = std::move(payload);
        rv.done = true;
      }
      finish_round(r);
    }
  }
};

}  // namespace detail

Request::Request(std::shared_ptr<detail::OpState> state)
    : state_(std::move(state)) {
  // Posting is eager: the first round's sends enter the mailboxes — and the
  // ledger/trace, under the posting context — at handle creation, before
  // the caller ever drives the handle. An in-flight (posted-but-incomplete)
  // send crossing a ledger snapshot boundary is therefore attributed to the
  // job and phase that posted it, never to whoever completes the handle.
  // Per-rank event order is unchanged: a blocking wrapper waits immediately
  // after creation, and round-0 sends precede every receive either way.
  if (state_ && !state_->complete()) state_->post_current_sends();
}

bool Request::done() const { return !state_ || state_->complete(); }

bool Request::test() {
  PARSYRK_CHECK_MSG(state_ != nullptr, "test() on an empty Request");
  return state_->try_progress();
}

void Request::wait() {
  PARSYRK_CHECK_MSG(state_ != nullptr, "wait() on an empty Request");
  state_->wait_all();
}

std::vector<double> Request::take() {
  wait();
  return std::move(state_->flat);
}

std::vector<std::vector<double>> Request::take_parts() {
  wait();
  return std::move(state_->parts);
}

void Comm::note_collective(OpKind kind, std::uint64_t signature,
                           std::int64_t count, int root) const {
  verify::Verifier* v = world_->verifier();
  if (v == nullptr) return;
  verify::Verifier::CollectiveSite site;
  site.kind = static_cast<std::uint8_t>(kind);
  site.name = op_kind_name(kind);
  site.signature = signature;
  site.count = count;
  site.root = root;
  // op_seq_ was just advanced by next_op_tag(): (group, handle generation,
  // op_seq_) is this collective's tag-space identity — the same key message
  // matching uses, so divergent ranks are caught before their messages can
  // cross-match.
  v->on_collective(world_rank(), group_->id,
                   static_cast<std::uint32_t>(tag_base_ / kOpsPerHandle),
                   op_seq_, site);
}

std::shared_ptr<detail::OpState> Comm::make_op(OpKind kind) const {
  auto st = std::make_shared<detail::OpState>();
  st->world = world_;
  st->group = group_;
  st->rank = rank_;
  st->kind = kind;
  st->mute = mute_ledger_;
  st->phase = world_->ledger().phase_of(world_rank());
  return st;
}

std::uint64_t Comm::overlap_begin() const {
  TraceSink* sink = world_->trace_sink();
  return sink ? sink->ordinal(world_rank()) : 0;
}

void Comm::overlap_end(std::uint64_t token, std::uint32_t chunk,
                       std::uint64_t words, std::uint64_t flops) const {
  TraceSink* sink = world_->trace_sink();
  if (sink == nullptr) return;
  OverlapInterval o;
  o.rank = world_rank();
  o.chunk = chunk;
  o.post_ordinal = token;
  o.complete_ordinal = sink->ordinal(world_rank());
  o.words = words;
  o.flops = flops;
  sink->record_overlap(o);
}

Request Comm::isend(int dst, int tag, std::span<const double> data) {
  PARSYRK_REQUIRE(tag >= 0, "user tags must be non-negative, got ", tag);
  PARSYRK_CHECK_MSG(dst >= 0 && dst < size() && dst != rank_,
                    "bad destination ", dst, " from rank ", rank_);
  auto st = make_op(OpKind::kPointToPoint);
  // Eager buffered semantics: the payload is on its way immediately, so the
  // handle is born complete.
  detail::OpState::Send s;
  s.dst = dst;
  s.tag = tag;
  s.payload.assign(data.begin(), data.end());
  st->post_send(s);
  return Request(std::move(st));
}

Request Comm::irecv(int src, int tag) {
  PARSYRK_REQUIRE(tag >= 0, "user tags must be non-negative, got ", tag);
  PARSYRK_CHECK_MSG(src >= 0 && src < size() && src != rank_,
                    "bad source ", src, " at rank ", rank_);
  auto st = make_op(OpKind::kPointToPoint);
  detail::OpState* raw = st.get();
  detail::OpState::Round round;
  round.recvs.push_back({src, tag});
  round.on_complete = [raw](detail::OpState::Round& r) {
    raw->flat = std::move(r.recvs[0].payload);
  };
  st->rounds.push_back(std::move(round));
  return Request(std::move(st));
}

Request Comm::ireduce_scatter(std::span<const double> data,
                              const std::vector<std::size_t>& sizes) {
  const int p = size();
  PARSYRK_REQUIRE(static_cast<int>(sizes.size()) == p,
                  "reduce_scatter needs one block size per rank");
  std::vector<std::size_t> offset(p + 1, 0);
  for (int i = 0; i < p; ++i) offset[i + 1] = offset[i] + sizes[i];
  PARSYRK_REQUIRE(offset[p] == data.size(), "reduce_scatter buffer is ",
                  data.size(), " words but block sizes sum to ", offset[p]);
  PARSYRK_CHECK_MSG(p < kTagStride, "communicator too large for tag scheme");
  const std::int64_t tag0 = next_op_tag();
  note_collective(OpKind::kReduceScatter, sizes_signature(sizes),
                  static_cast<std::int64_t>(data.size()));
  auto st = make_op(OpKind::kReduceScatter);
  st->flat.assign(data.begin() + offset[rank_],
                  data.begin() + offset[rank_ + 1]);
  detail::OpState* raw = st.get();
  st->add_pairwise_rounds(
      tag0,
      [&](int dst) {
        return std::vector<double>(data.begin() + offset[dst],
                                   data.begin() + offset[dst + 1]);
      },
      [raw](int, const std::vector<double>& in) {
        PARSYRK_CHECK(in.size() == raw->flat.size());
        for (std::size_t i = 0; i < in.size(); ++i) raw->flat[i] += in[i];
      });
  return Request(std::move(st));
}

Request Comm::iall_gather(std::span<const double> mine) {
  const int p = size();
  PARSYRK_CHECK_MSG(p < kTagStride, "communicator too large for tag scheme");
  const std::int64_t tag0 = next_op_tag();
  note_collective(OpKind::kAllGather, mine.size(),
                  static_cast<std::int64_t>(mine.size()));
  auto st = make_op(OpKind::kAllGather);
  const std::size_t n = mine.size();
  st->flat.assign(n * p, 0.0);
  std::copy(mine.begin(), mine.end(), st->flat.begin() + rank_ * n);
  detail::OpState* raw = st.get();
  st->add_pairwise_rounds(
      tag0, [&](int) { return std::vector<double>(mine.begin(), mine.end()); },
      [raw, n](int src, const std::vector<double>& in) {
        PARSYRK_CHECK(in.size() == n);
        std::copy(in.begin(), in.end(), raw->flat.begin() + src * n);
      });
  return Request(std::move(st));
}

Request Comm::iall_to_all_v(const std::vector<std::vector<double>>& send) {
  const int p = size();
  PARSYRK_REQUIRE(static_cast<int>(send.size()) == p,
                  "all_to_all_v needs one block per rank; got ", send.size(),
                  " for ", p, " ranks");
  PARSYRK_CHECK_MSG(p < kTagStride, "communicator too large for tag scheme");
  const std::int64_t tag0 = next_op_tag();
  // Per-rank payload sizes legitimately differ in a personalized exchange;
  // only the operation identity is matched.
  note_collective(OpKind::kAllToAllV, 0, p);
  auto st = make_op(OpKind::kAllToAllV);
  st->parts.resize(p);
  st->parts[rank_] = send[rank_];  // own block stays local; no cost
  detail::OpState* raw = st.get();
  st->add_pairwise_rounds(
      tag0, [&](int dst) { return send[dst]; },
      [raw](int src, std::vector<double>& in) {
        raw->parts[src] = std::move(in);
      });
  return Request(std::move(st));
}

// ---------------------------------------------------------------------------
// Pairwise-exchange collectives (blocking wrappers over the engine)
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> Comm::all_to_all_v(
    const std::vector<std::vector<double>>& send) {
  return iall_to_all_v(send).take_parts();
}

std::vector<double> Comm::reduce_scatter(
    std::span<const double> data, const std::vector<std::size_t>& sizes) {
  return ireduce_scatter(data, sizes).take();
}

std::vector<double> Comm::reduce_scatter_equal(std::span<const double> data) {
  const int p = size();
  PARSYRK_REQUIRE(data.size() % p == 0, "buffer of ", data.size(),
                  " words is not divisible by ", p, " ranks");
  return reduce_scatter(data,
                        std::vector<std::size_t>(p, data.size() / p));
}

std::vector<double> Comm::all_gather(std::span<const double> mine) {
  return iall_gather(mine).take();
}

std::vector<std::vector<double>> Comm::all_gather_v(
    std::span<const double> mine) {
  const int p = size();
  PARSYRK_CHECK_MSG(p < kTagStride, "communicator too large for tag scheme");
  const std::int64_t tag0 = next_op_tag();
  note_collective(OpKind::kAllGatherV, 0,
                  static_cast<std::int64_t>(mine.size()));
  auto st = make_op(OpKind::kAllGatherV);
  st->parts.resize(p);
  st->parts[rank_].assign(mine.begin(), mine.end());
  detail::OpState* raw = st.get();
  st->add_pairwise_rounds(
      tag0, [&](int) { return std::vector<double>(mine.begin(), mine.end()); },
      [raw](int src, std::vector<double>& in) {
        raw->parts[src] = std::move(in);
      });
  return Request(std::move(st)).take_parts();
}

// ---------------------------------------------------------------------------
// Latency-efficient variants (§6)
// ---------------------------------------------------------------------------

std::vector<double> Comm::all_gather_bruck(std::span<const double> mine) {
  const int p = size();
  const std::size_t n = mine.size();
  const std::int64_t tag0 = next_op_tag();
  note_collective(OpKind::kAllGatherBruck, n, static_cast<std::int64_t>(n));
  auto st = make_op(OpKind::kAllGatherBruck);
  // parts[t] holds the contribution of rank (rank_ + t) mod p; round-k
  // payloads flatten what earlier rounds delivered, so they are built
  // lazily at post time.
  st->parts.reserve(p);
  st->parts.emplace_back(mine.begin(), mine.end());
  detail::OpState* raw = st.get();
  int round_idx = 0;
  for (int d = 1; d < p; d <<= 1) {
    const int count = std::min(d, p - d);
    const int dst = (rank_ - d + p) % p;
    const int src = (rank_ + d) % p;
    detail::OpState::Round round;
    detail::OpState::Send s;
    s.dst = dst;
    s.tag = tag0 + round_idx;
    s.build = [raw, count, n] {
      std::vector<double> flat;
      flat.reserve(count * n);
      for (int t = 0; t < count; ++t) {
        flat.insert(flat.end(), raw->parts[t].begin(), raw->parts[t].end());
      }
      return flat;
    };
    round.sends.push_back(std::move(s));
    round.recvs.push_back({src, tag0 + round_idx});
    round.on_complete = [raw, count, n](detail::OpState::Round& rd) {
      const auto& in = rd.recvs[0].payload;
      PARSYRK_CHECK(in.size() == static_cast<std::size_t>(count) * n);
      for (int t = 0; t < count; ++t) {
        raw->parts.emplace_back(in.begin() + t * n, in.begin() + (t + 1) * n);
      }
    };
    st->rounds.push_back(std::move(round));
    ++round_idx;
  }
  // Final (message-free) round: unrotate the relative slots into rank order.
  const int myrank = rank_;
  detail::OpState::Round fin;
  fin.on_complete = [raw, p, n, myrank](detail::OpState::Round&) {
    raw->flat.assign(n * static_cast<std::size_t>(p), 0.0);
    for (int t = 0; t < p; ++t) {
      const int owner = (myrank + t) % p;
      std::copy(raw->parts[t].begin(), raw->parts[t].end(),
                raw->flat.begin() + owner * n);
    }
    raw->parts.clear();
  };
  st->rounds.push_back(std::move(fin));
  return Request(std::move(st)).take();
}

std::vector<double> Comm::reduce_scatter_bruck(std::span<const double> data) {
  const int p = size();
  PARSYRK_REQUIRE(data.size() % p == 0, "buffer of ", data.size(),
                  " words is not divisible by ", p, " ranks");
  const std::size_t n = data.size() / p;
  const std::int64_t tag0 = next_op_tag();
  note_collective(OpKind::kReduceScatterBruck, data.size(),
                  static_cast<std::int64_t>(data.size()));
  auto st = make_op(OpKind::kReduceScatterBruck);
  // parts[t] = my partial for rank (rank_ + t) mod p. The schedule is the
  // exact reverse of all_gather_bruck with summation folded in: what the
  // gather copied outward, the reduce accumulates inward, so bandwidth
  // (1−1/P)·w and latency ceil(log2 P) are both optimal (§6). Payloads read
  // partials mutated by earlier rounds, so they are built lazily.
  st->parts.resize(p);
  for (int t = 0; t < p; ++t) {
    const int owner = (rank_ + t) % p;
    st->parts[t].assign(data.begin() + owner * n,
                        data.begin() + (owner + 1) * n);
  }
  detail::OpState* raw = st.get();
  // Forward step distances, replayed in reverse.
  std::vector<int> steps;
  for (int d = 1; d < p; d <<= 1) steps.push_back(d);
  int round_idx = 0;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    const int d = *it;
    const int count = std::min(d, p - d);
    const int dst = (rank_ + d) % p;
    const int src = (rank_ - d + p) % p;
    detail::OpState::Round round;
    detail::OpState::Send s;
    s.dst = dst;
    s.tag = tag0 + round_idx;
    s.build = [raw, d, count, n] {
      std::vector<double> flat;
      flat.reserve(count * n);
      for (int t = d; t < d + count; ++t) {
        flat.insert(flat.end(), raw->parts[t].begin(), raw->parts[t].end());
      }
      return flat;
    };
    round.sends.push_back(std::move(s));
    round.recvs.push_back({src, tag0 + round_idx});
    round.on_complete = [raw, count, n](detail::OpState::Round& rd) {
      const auto& in = rd.recvs[0].payload;
      PARSYRK_CHECK(in.size() == static_cast<std::size_t>(count) * n);
      for (int t = 0; t < count; ++t) {
        for (std::size_t w = 0; w < n; ++w) {
          raw->parts[t][w] += in[t * n + w];
        }
      }
    };
    st->rounds.push_back(std::move(round));
    ++round_idx;
  }
  detail::OpState::Round fin;
  fin.on_complete = [raw](detail::OpState::Round&) {
    raw->flat = std::move(raw->parts[0]);
    raw->parts.clear();
  };
  st->rounds.push_back(std::move(fin));
  return Request(std::move(st)).take();
}

std::vector<double> Comm::all_to_all_butterfly(std::span<const double> send,
                                               std::size_t block) {
  const int p = size();
  PARSYRK_REQUIRE(send.size() == block * p,
                  "butterfly all-to-all needs p equal blocks");
  const std::int64_t tag0 = next_op_tag();
  note_collective(OpKind::kAllToAllButterfly, block,
                  static_cast<std::int64_t>(block));
  auto st = make_op(OpKind::kAllToAllButterfly);
  // Phase 1: local rotation so slot j holds the block destined to rank_+j.
  st->parts.resize(p);
  for (int j = 0; j < p; ++j) {
    const int dst = (rank_ + j) % p;
    st->parts[j].assign(send.begin() + dst * block,
                        send.begin() + (dst + 1) * block);
  }
  detail::OpState* raw = st.get();
  // Phase 2: bit-wise exchanges; block j travels a total displacement of j.
  // Which slots move per round depends only on the bit, so the move lists
  // are precomputed; the payloads read slots rewritten by earlier rounds
  // and are built lazily.
  int round_idx = 0;
  for (int bit = 1; bit < p; bit <<= 1) {
    const int dst = (rank_ + bit) % p;
    const int src = (rank_ - bit + p) % p;
    auto moved = std::make_shared<std::vector<int>>();
    for (int j = 0; j < p; ++j) {
      if ((j & bit) != 0) moved->push_back(j);
    }
    detail::OpState::Round round;
    detail::OpState::Send s;
    s.dst = dst;
    s.tag = tag0 + round_idx;
    s.build = [raw, moved, block] {
      std::vector<double> flat;
      flat.reserve(moved->size() * block);
      for (int j : *moved) {
        flat.insert(flat.end(), raw->parts[j].begin(), raw->parts[j].end());
      }
      return flat;
    };
    round.sends.push_back(std::move(s));
    round.recvs.push_back({src, tag0 + round_idx});
    round.on_complete = [raw, moved, block](detail::OpState::Round& rd) {
      const auto& in = rd.recvs[0].payload;
      PARSYRK_CHECK(in.size() == moved->size() * block);
      for (std::size_t m = 0; m < moved->size(); ++m) {
        raw->parts[(*moved)[m]].assign(in.begin() + m * block,
                                       in.begin() + (m + 1) * block);
      }
    };
    st->rounds.push_back(std::move(round));
    ++round_idx;
  }
  // Phase 3: slot j now holds the block from rank (rank_ - j); unrotate.
  const int myrank = rank_;
  detail::OpState::Round fin;
  fin.on_complete = [raw, p, block, myrank](detail::OpState::Round&) {
    raw->flat.assign(block * static_cast<std::size_t>(p), 0.0);
    for (int j = 0; j < p; ++j) {
      const int src = (myrank - j + p) % p;
      std::copy(raw->parts[j].begin(), raw->parts[j].end(),
                raw->flat.begin() + src * block);
    }
    raw->parts.clear();
  };
  st->rounds.push_back(std::move(fin));
  return Request(std::move(st)).take();
}

// ---------------------------------------------------------------------------
// Rooted collectives
// ---------------------------------------------------------------------------

void Comm::bcast(std::span<double> data, int root) {
  const int p = size();
  PARSYRK_REQUIRE(root >= 0 && root < p, "bad bcast root ", root);
  const std::int64_t tag0 = next_op_tag();
  note_collective(OpKind::kBcast, data.size(),
                  static_cast<std::int64_t>(data.size()), root);
  auto st = make_op(OpKind::kBcast);
  const int vrank = (rank_ - root + p) % p;
  // Binomial tree: receive once (non-root), then forward down the tree. The
  // forward payloads read the just-received data, so they are built lazily;
  // `data` is the caller's buffer and outlives the blocking wait below.
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) != 0) {
      const int src = ((vrank - mask) + root) % p;
      detail::OpState::Round round;
      round.recvs.push_back({src, tag0});
      round.on_complete = [data](detail::OpState::Round& rd) {
        const auto& in = rd.recvs[0].payload;
        PARSYRK_CHECK(in.size() == data.size());
        std::copy(in.begin(), in.end(), data.begin());
      };
      st->rounds.push_back(std::move(round));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  detail::OpState::Round fwd;
  while (mask > 0) {
    if (vrank + mask < p) {
      const int dst = ((vrank + mask) + root) % p;
      detail::OpState::Send s;
      s.dst = dst;
      s.tag = tag0;
      s.build = [data] { return std::vector<double>(data.begin(), data.end()); };
      fwd.sends.push_back(std::move(s));
    }
    mask >>= 1;
  }
  if (!fwd.sends.empty()) st->rounds.push_back(std::move(fwd));
  Request(std::move(st)).wait();
}

std::vector<double> Comm::reduce(std::span<const double> data, int root) {
  const int p = size();
  PARSYRK_REQUIRE(root >= 0 && root < p, "bad reduce root ", root);
  const std::int64_t tag0 = next_op_tag();
  note_collective(OpKind::kReduce, data.size(),
                  static_cast<std::int64_t>(data.size()), root);
  auto st = make_op(OpKind::kReduce);
  const int vrank = (rank_ - root + p) % p;
  st->flat.assign(data.begin(), data.end());
  detail::OpState* raw = st.get();
  // Binomial tree: accumulate children in mask order, then (non-root) send
  // the partial up — lazily, since it reads the accumulated result.
  bool sender = false;
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) != 0) {
      const int dst = ((vrank - mask) + root) % p;
      detail::OpState::Round round;
      detail::OpState::Send s;
      s.dst = dst;
      s.tag = tag0;
      s.build = [raw] { return raw->flat; };
      round.sends.push_back(std::move(s));
      st->rounds.push_back(std::move(round));
      sender = true;
      break;
    }
    if (vrank + mask < p) {
      const int src = ((vrank + mask) + root) % p;
      detail::OpState::Round round;
      round.recvs.push_back({src, tag0});
      round.on_complete = [raw](detail::OpState::Round& rd) {
        const auto& in = rd.recvs[0].payload;
        PARSYRK_CHECK(in.size() == raw->flat.size());
        for (std::size_t i = 0; i < in.size(); ++i) raw->flat[i] += in[i];
      };
      st->rounds.push_back(std::move(round));
    }
    mask <<= 1;
  }
  auto out = Request(std::move(st)).take();
  return sender ? std::vector<double>{} : std::move(out);
}

std::vector<std::vector<double>> Comm::gather(std::span<const double> mine,
                                              int root) {
  const int p = size();
  PARSYRK_REQUIRE(root >= 0 && root < p, "bad gather root ", root);
  const std::int64_t tag0 = next_op_tag();
  // Contribution sizes legitimately differ (variable-size gather).
  note_collective(OpKind::kGather, 0, static_cast<std::int64_t>(mine.size()),
                  root);
  auto st = make_op(OpKind::kGather);
  detail::OpState* raw = st.get();
  if (rank_ != root) {
    detail::OpState::Round round;
    detail::OpState::Send s;
    s.dst = root;
    s.tag = tag0;
    s.payload.assign(mine.begin(), mine.end());
    round.sends.push_back(std::move(s));
    st->rounds.push_back(std::move(round));
    Request(std::move(st)).wait();
    return {};
  }
  st->parts.resize(p);
  st->parts[root].assign(mine.begin(), mine.end());
  detail::OpState::Round round;
  for (int r = 0; r < p; ++r) {
    if (r == root) continue;
    round.recvs.push_back({r, tag0});
  }
  round.on_complete = [raw](detail::OpState::Round& rd) {
    for (auto& rv : rd.recvs) raw->parts[rv.src] = std::move(rv.payload);
  };
  st->rounds.push_back(std::move(round));
  return Request(std::move(st)).take_parts();
}

std::vector<double> Comm::scatter(
    const std::vector<std::vector<double>>& parts, int root) {
  const int p = size();
  PARSYRK_REQUIRE(root >= 0 && root < p, "bad scatter root ", root);
  const std::int64_t tag0 = next_op_tag();
  // Parts are only read on root; non-roots cannot contribute a size.
  note_collective(OpKind::kScatter, 0, 0, root);
  auto st = make_op(OpKind::kScatter);
  detail::OpState* raw = st.get();
  if (rank_ == root) {
    PARSYRK_REQUIRE(static_cast<int>(parts.size()) == p,
                    "scatter needs one part per rank");
    detail::OpState::Round round;
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      detail::OpState::Send s;
      s.dst = r;
      s.tag = tag0;
      s.payload = parts[r];
      round.sends.push_back(std::move(s));
    }
    st->flat = parts[root];
    st->rounds.push_back(std::move(round));
    return Request(std::move(st)).take();
  }
  detail::OpState::Round round;
  round.recvs.push_back({root, tag0});
  round.on_complete = [raw](detail::OpState::Round& rd) {
    raw->flat = std::move(rd.recvs[0].payload);
  };
  st->rounds.push_back(std::move(round));
  return Request(std::move(st)).take();
}

// ---------------------------------------------------------------------------
// Hierarchical collectives (two-level topology)
// ---------------------------------------------------------------------------
//
// Composed from split() plus the rooted and pairwise primitives, so every
// message rides the existing engine (tags, ledger tiers, trace kinds all
// come for free). Node membership is by *world* topology: a communicator
// qualifies when its members form complete, node-aligned groups — as a
// request's ranks [0, plan size) do when the plan spans whole nodes; a
// request over part of a node falls back to the flat schedule.

bool Comm::hier_available() const {
  const int rpn = world_->ranks_per_node();
  const int p = size();
  if (rpn <= 1 || p % rpn != 0 || p / rpn < 2) return false;
  for (int base = 0; base < p; base += rpn) {
    const int node = world_->node_of(group_->world_ranks[base]);
    for (int i = 1; i < rpn; ++i) {
      if (world_->node_of(group_->world_ranks[base + i]) != node) return false;
    }
    if (base > 0 && world_->node_of(group_->world_ranks[base - 1]) == node) {
      return false;
    }
  }
  return true;
}

std::vector<double> Comm::reduce_scatter_hier(
    std::span<const double> data, const std::vector<std::size_t>& sizes) {
  if (!hier_available()) return reduce_scatter(data, sizes);
  HierScope hier_scope(world_, world_rank());
  const int p = size();
  PARSYRK_REQUIRE(static_cast<int>(sizes.size()) == p,
                  "reduce_scatter needs one block size per rank");
  const int rpn = world_->ranks_per_node();
  const int nnodes = p / rpn;
  const int my_node = rank_ / rpn;
  const bool leader = rank_ % rpn == 0;
  Comm node = split(my_node, rank_);
  Comm peers = split(leader ? 0 : 1, rank_);
  // Stage 1 (intra tier): binomial reduce of the full buffer to the leader.
  std::vector<double> partial = node.reduce(data, 0);
  // Stage 2 (inter tier): leaders alone reduce-scatter per-node aggregate
  // blocks. A node's members own contiguous segments of the buffer, so its
  // aggregate is one contiguous block and the blocking is well-formed.
  std::vector<std::vector<double>> member_parts;
  if (leader) {
    std::vector<std::size_t> node_sizes(nnodes, 0);
    for (int r = 0; r < p; ++r) node_sizes[r / rpn] += sizes[r];
    std::vector<double> node_block = peers.reduce_scatter(partial, node_sizes);
    // Stage 3 prep: slice the node block back into member segments.
    member_parts.resize(rpn);
    std::size_t off = 0;
    for (int i = 0; i < rpn; ++i) {
      const std::size_t w = sizes[my_node * rpn + i];
      member_parts[i].assign(node_block.begin() + off,
                             node_block.begin() + off + w);
      off += w;
    }
  }
  // Stage 3 (intra tier): leader scatters each member its summed segment.
  return node.scatter(member_parts, 0);
}

std::vector<std::vector<double>> Comm::all_to_all_v_hier(
    const std::vector<std::vector<double>>& send) {
  if (!hier_available()) return all_to_all_v(send);
  HierScope hier_scope(world_, world_rank());
  const int p = size();
  PARSYRK_REQUIRE(static_cast<int>(send.size()) == p,
                  "all_to_all_v needs one block per rank; got ", send.size(),
                  " for ", p, " ranks");
  const int rpn = world_->ranks_per_node();
  const int nnodes = p / rpn;
  const int my_node = rank_ / rpn;
  const bool leader = rank_ % rpn == 0;
  Comm node = split(my_node, rank_);
  Comm peers = split(leader ? 0 : 1, rank_);

  // Wire image: a header of per-destination-node blob sizes, then for each
  // destination node a blob of [payload words][payload] frames in
  // destination-rank order. Frame sizes ride the wire as doubles (payload
  // word counts are far below 2^53, so the encoding is exact).
  std::vector<double> wire;
  {
    std::size_t total = nnodes;
    for (int d = 0; d < p; ++d) total += 1 + send[d].size();
    wire.reserve(total);
    for (int j = 0; j < nnodes; ++j) {
      std::size_t blob = 0;
      for (int i = 0; i < rpn; ++i) blob += 1 + send[j * rpn + i].size();
      wire.push_back(static_cast<double>(blob));
    }
    for (int d = 0; d < p; ++d) {
      wire.push_back(static_cast<double>(send[d].size()));
      wire.insert(wire.end(), send[d].begin(), send[d].end());
    }
  }
  // Stage 1 (intra tier): every member's wire image gathers at the leader.
  std::vector<std::vector<double>> gathered = node.gather(wire, 0);
  // Stage 2 (inter tier): leaders exchange node-to-node aggregates (their
  // own node's aggregate stays local inside all_to_all_v).
  std::vector<std::vector<double>> member_in;
  if (leader) {
    std::vector<std::vector<double>> agg(nnodes);
    for (int j = 0; j < nnodes; ++j) {
      for (int m = 0; m < rpn; ++m) {
        const std::vector<double>& w = gathered[m];
        std::size_t off = nnodes;
        for (int k = 0; k < j; ++k) off += static_cast<std::size_t>(w[k]);
        const std::size_t len = static_cast<std::size_t>(w[j]);
        agg[j].insert(agg[j].end(), w.begin() + off, w.begin() + off + len);
      }
    }
    std::vector<std::vector<double>> from_nodes = peers.all_to_all_v(agg);
    // Regroup into per-local-member streams: frames arrive grouped by
    // (source node, source member, destination member); emitting them per
    // destination in that scan order yields source-rank order streams.
    member_in.assign(rpn, {});
    for (int s = 0; s < nnodes; ++s) {
      const std::vector<double>& blob = from_nodes[s];
      std::size_t off = 0;
      for (int m = 0; m < rpn; ++m) {
        for (int i = 0; i < rpn; ++i) {
          const std::size_t len = static_cast<std::size_t>(blob[off]);
          member_in[i].insert(member_in[i].end(), blob.begin() + off,
                              blob.begin() + off + 1 + len);
          off += 1 + len;
        }
      }
      PARSYRK_CHECK(off == blob.size());
    }
  }
  // Stage 3 (intra tier): each member receives its inbound frame stream
  // (sources in rank order) and decodes.
  std::vector<double> mine = node.scatter(member_in, 0);
  std::vector<std::vector<double>> out(p);
  std::size_t off = 0;
  for (int src = 0; src < p; ++src) {
    const std::size_t len = static_cast<std::size_t>(mine[off]);
    out[src].assign(mine.begin() + off + 1, mine.begin() + off + 1 + len);
    off += 1 + len;
  }
  PARSYRK_CHECK(off == mine.size());
  return out;
}

// ---------------------------------------------------------------------------
// split
// ---------------------------------------------------------------------------

Comm Comm::split(int color, int key) {
  // Exchange (color, key) so each rank can compute every group's membership.
  const int p = size();
  const std::vector<double> mine = {static_cast<double>(color),
                                    static_cast<double>(key)};
  mute_ledger_ = true;  // setup exchange: not algorithm communication
  auto all = all_gather(mine);
  mute_ledger_ = false;

  struct Entry {
    int color, key, rank;
  };
  std::vector<Entry> members;
  std::string sig = std::to_string(group_->id) + "@" +
                    std::to_string(op_seq_) + ":";
  for (int r = 0; r < p; ++r) {
    const int rc = static_cast<int>(all[2 * r]);
    const int rk = static_cast<int>(all[2 * r + 1]);
    sig += std::to_string(rc) + "," + std::to_string(rk) + ";";
    if (rc == color) members.push_back({rc, rk, r});
  }
  sig += "|" + std::to_string(color);
  std::stable_sort(members.begin(), members.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.key != b.key ? a.key < b.key : a.rank < b.rank;
                   });

  std::vector<int> world_members;
  world_members.reserve(members.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    world_members.push_back(group_->world_ranks[members[i].rank]);
    if (members[i].rank == rank_) my_new_rank = static_cast<int>(i);
  }
  PARSYRK_CHECK(my_new_rank >= 0);
  auto g = world_->intern_group(sig, world_members);
  // Obtaining a group handle is collective, so every member reads the same
  // generation; the bump gives the next handle to this group (a repeated
  // identical split) a disjoint collective-tag block. Generations reset at
  // each job start.
  const std::uint32_t gen = g->handle_gen[my_new_rank]++;
  return Comm(world_, std::move(g), my_new_rank, gen);
}

}  // namespace parsyrk::comm

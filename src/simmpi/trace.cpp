#include "simmpi/trace.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace parsyrk::comm {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kPointToPoint: return "p2p";
    case OpKind::kAllToAllV: return "all_to_all_v";
    case OpKind::kReduceScatter: return "reduce_scatter";
    case OpKind::kAllGather: return "all_gather";
    case OpKind::kAllGatherV: return "all_gather_v";
    case OpKind::kAllReduce: return "all_reduce";
    case OpKind::kAllGatherBruck: return "all_gather_bruck";
    case OpKind::kReduceScatterBruck: return "reduce_scatter_bruck";
    case OpKind::kAllToAllButterfly: return "all_to_all_butterfly";
    case OpKind::kBcast: return "bcast";
    case OpKind::kReduce: return "reduce";
    case OpKind::kGather: return "gather";
    case OpKind::kScatter: return "scatter";
  }
  return "unknown";
}

JobTrace extract_rank_range(const JobTrace& world_trace, int rank_begin,
                            int rank_end) {
  PARSYRK_CHECK(rank_begin >= 0 && rank_begin <= rank_end &&
                rank_end <= static_cast<int>(world_trace.ranks));
  JobTrace t;
  t.job_id = world_trace.job_id;
  t.ranks = world_trace.ranks;
  t.physical_ranks = world_trace.physical_ranks;
  t.ranks_per_node = world_trace.ranks_per_node;
  t.poisoned = world_trace.poisoned;
  t.dropped = world_trace.dropped;
  std::vector<bool> used(world_trace.phases.size(), false);
  for (const TraceEvent& e : world_trace.events) {
    if (e.rank < rank_begin || e.rank >= rank_end) continue;
    TraceEvent out = e;
    out.rank -= rank_begin;
    out.peer -= rank_begin;
    t.events.push_back(out);
    used[e.phase] = true;
  }
  for (const OverlapInterval& o : world_trace.overlaps) {
    if (o.rank < rank_begin || o.rank >= rank_end) continue;
    OverlapInterval out = o;
    out.rank -= rank_begin;
    t.overlaps.push_back(out);
  }
  // Rebuild the canonical phase table from the phases this range used; the
  // world trace's table is sorted by name, so the filtered subset stays
  // sorted.
  std::vector<std::uint32_t> remap(world_trace.phases.size(), 0);
  for (std::size_t i = 0; i < world_trace.phases.size(); ++i) {
    if (!used[i]) continue;
    remap[i] = static_cast<std::uint32_t>(t.phases.size());
    t.phases.push_back(world_trace.phases[i]);
  }
  for (TraceEvent& e : t.events) e.phase = remap[e.phase];
  return t;
}

namespace detail {

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t c = 1;
  while (c < n) c <<= 1;
  return c;
}
}  // namespace

TraceRing::TraceRing(std::size_t capacity)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(slots_.size() - 1) {}

bool TraceRing::try_push(const TraceEvent& e) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[tail & mask_] = e;
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

void TraceRing::drain(std::vector<TraceEvent>& out) {
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  for (; head != tail; ++head) out.push_back(slots_[head & mask_]);
  head_.store(head, std::memory_order_release);
}

}  // namespace detail

TraceSink::TraceSink(int num_ranks, std::size_t capacity_per_rank,
                     std::uint32_t physical_ranks)
    : physical_ranks_(physical_ranks) {
  PARSYRK_CHECK(num_ranks >= 1);
  per_rank_.reserve(num_ranks);
  for (int r = 0; r < num_ranks; ++r) {
    per_rank_.push_back(std::make_unique<PerRank>(capacity_per_rank));
  }
  intern("default");  // id 0, matching the ledger's initial phase
}

void TraceSink::begin_job(std::uint64_t job_id) {
  job_id_ = job_id;
  begin_ranks(0, ranks());
}

void TraceSink::begin_ranks(int rank_begin, int rank_end) {
  PARSYRK_CHECK(rank_begin >= 0 && rank_begin <= rank_end &&
                rank_end <= ranks());
  std::vector<TraceEvent> discard;
  for (int r = rank_begin; r < rank_end; ++r) {
    PerRank& pr = *per_rank_[r];
    discard.clear();
    pr.ring.drain(discard);
    pr.ring.reset_dropped();
    pr.phase = 0;  // back to "default", exactly as on a fresh world
    pr.ordinal = 0;
    pr.overlaps.clear();
  }
}

std::uint32_t TraceSink::intern(const std::string& phase) {
  std::lock_guard lock(phases_mu_);
  auto it = phase_ids_.find(phase);
  if (it != phase_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(phase_names_.size());
  phase_names_.push_back(phase);
  phase_ids_.emplace(phase, id);
  return id;
}

void TraceSink::set_phase(int rank, const std::string& phase) {
  PARSYRK_CHECK(rank >= 0 && rank < ranks());
  per_rank_[rank]->phase = intern(phase);
}

void TraceSink::record(int rank, int peer, OpKind kind, TraceDir dir,
                       std::uint64_t words) {
  record(rank, peer, kind, dir, words, per_rank_[rank]->phase);
}

void TraceSink::record(int rank, int peer, OpKind kind, TraceDir dir,
                       std::uint64_t words, std::uint32_t phase_id) {
  PerRank& pr = *per_rank_[rank];
  TraceEvent e;
  e.ordinal = pr.ordinal++;
  e.words = words;
  e.rank = rank;
  e.peer = peer;
  e.phase = phase_id;
  e.kind = kind;
  e.dir = dir;
  pr.ring.try_push(e);
}

void TraceSink::record_overlap(const OverlapInterval& interval) {
  per_rank_[interval.rank]->overlaps.push_back(interval);
}

JobTrace TraceSink::drain(bool poisoned) {
  JobTrace t;
  t.job_id = job_id_;
  t.ranks = static_cast<std::uint32_t>(per_rank_.size());
  t.physical_ranks = physical_ranks_;
  t.ranks_per_node = ranks_per_node_;
  t.poisoned = poisoned;
  for (auto& pr : per_rank_) {
    pr->ring.drain(t.events);  // per-ring ordinal order, ranks appended in order
    t.dropped += pr->ring.dropped();
    pr->ring.reset_dropped();
    // Overlap windows are appended in (rank, post_ordinal) order — each rank
    // records its own in posting order.
    t.overlaps.insert(t.overlaps.end(), pr->overlaps.begin(),
                      pr->overlaps.end());
    pr->overlaps.clear();
  }
  canonicalize_phases(t);
  return t;
}

JobTrace TraceSink::drain_ranks(bool poisoned, int rank_begin, int rank_end,
                                std::uint64_t job_id) {
  PARSYRK_CHECK(rank_begin >= 0 && rank_begin <= rank_end &&
                rank_end <= ranks());
  JobTrace t;
  t.job_id = job_id;
  t.ranks = static_cast<std::uint32_t>(per_rank_.size());
  t.physical_ranks = physical_ranks_;
  t.ranks_per_node = ranks_per_node_;
  t.poisoned = poisoned;
  for (int r = rank_begin; r < rank_end; ++r) {
    PerRank& pr = *per_rank_[r];
    pr.ring.drain(t.events);
    t.dropped += pr.ring.dropped();
    pr.ring.reset_dropped();
    t.overlaps.insert(t.overlaps.end(), pr.overlaps.begin(),
                      pr.overlaps.end());
    pr.overlaps.clear();
  }
  canonicalize_phases(t);
  return t;
}

void TraceSink::canonicalize_phases(JobTrace& t) {
  // Canonicalize the phase table: ids in the raw events reflect interning
  // order, which can differ run-to-run when ranks race to name phases. The
  // exported table holds only the phases this job used, sorted by name, and
  // events are remapped — so equal schedules yield bitwise-equal traces.
  std::vector<std::string> used_names;
  {
    std::lock_guard lock(phases_mu_);
    std::vector<bool> used(phase_names_.size(), false);
    for (const auto& e : t.events) used[e.phase] = true;
    for (std::size_t i = 0; i < used.size(); ++i) {
      if (used[i]) used_names.push_back(phase_names_[i]);
    }
  }
  std::sort(used_names.begin(), used_names.end());
  std::map<std::string, std::uint32_t> canon;
  for (std::size_t i = 0; i < used_names.size(); ++i) {
    canon.emplace(used_names[i], static_cast<std::uint32_t>(i));
  }
  {
    std::lock_guard lock(phases_mu_);
    for (auto& e : t.events) e.phase = canon.at(phase_names_[e.phase]);
  }
  t.phases = std::move(used_names);
}

}  // namespace parsyrk::comm

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

TraceSink::TraceSink(const CostLedger& ledger, int num_ranks,
                     std::size_t capacity_per_rank,
                     std::uint32_t physical_ranks)
    : ledger_(ledger), physical_ranks_(physical_ranks) {
  PARSYRK_CHECK(num_ranks >= 1);
  per_rank_.reserve(num_ranks);
  for (int r = 0; r < num_ranks; ++r) {
    per_rank_.push_back(std::make_unique<PerRank>(capacity_per_rank));
  }
}

void TraceSink::begin_ranks(int rank_begin, int rank_end,
                            std::uint64_t job_id) {
  PARSYRK_CHECK(rank_begin >= 0 && rank_begin <= rank_end &&
                rank_end <= ranks());
  job_id_ = job_id;
  std::vector<TraceEvent> discard;
  for (int r = rank_begin; r < rank_end; ++r) {
    PerRank& pr = *per_rank_[r];
    discard.clear();
    pr.ring.drain(discard);
    pr.ring.reset_dropped();
    pr.ordinal = 0;
    pr.overlaps.clear();
  }
}

void TraceSink::record(int rank, int peer, OpKind kind, Dir dir,
                       std::uint64_t words, std::uint32_t phase) {
  PerRank& pr = *per_rank_[rank];
  TraceEvent e;
  e.ordinal = pr.ordinal++;
  e.words = words;
  e.rank = rank;
  e.peer = peer;
  e.phase = phase;
  e.kind = kind;
  e.dir = dir;
  pr.ring.try_push(e);
}

void TraceSink::record_overlap(const OverlapInterval& interval) {
  per_rank_[interval.rank]->overlaps.push_back(interval);
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
    pr.ring.drain(t.events);  // per-ring ordinal order, ranks appended in order
    t.dropped += pr.ring.dropped();
    pr.ring.reset_dropped();
    // Overlap windows are appended in (rank, post_ordinal) order — each rank
    // records its own in posting order.
    t.overlaps.insert(t.overlaps.end(), pr.overlaps.begin(),
                      pr.overlaps.end());
    pr.overlaps.clear();
  }
  canonicalize_phases(t);
  return t;
}

void TraceSink::canonicalize_phases(JobTrace& t) const {
  // Canonicalize the phase table: ledger ids reflect interning order, which
  // can differ run-to-run when ranks race to name phases and grows across
  // jobs on a warm world. The exported table holds only the phases this job
  // used, sorted by name, and events are remapped — so equal schedules
  // yield bitwise-equal traces.
  const std::vector<std::string> names = ledger_.phase_table();
  std::vector<bool> used(names.size(), false);
  for (const auto& e : t.events) used[e.phase] = true;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < used.size(); ++i) {
    if (used[i]) ids.push_back(i);
  }
  std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
    return names[a] < names[b];
  });
  std::vector<std::uint32_t> canon(names.size(), 0);
  t.phases.clear();
  for (std::uint32_t id : ids) {
    canon[id] = static_cast<std::uint32_t>(t.phases.size());
    t.phases.push_back(names[id]);
  }
  for (auto& e : t.events) e.phase = canon[e.phase];
}

}  // namespace parsyrk::comm

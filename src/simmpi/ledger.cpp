#include "simmpi/ledger.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace parsyrk::comm {

CostSummary fold_summary(std::span<const Counters> per_rank, int physical,
                         int ranks_per_bucket) {
  PARSYRK_CHECK(ranks_per_bucket >= 1 && physical % ranks_per_bucket == 0 &&
                (physical >= 1 || per_rank.empty()));
  CostSummary s;
  const int bucket_count = physical / ranks_per_bucket;
  s.ranks = static_cast<std::uint64_t>(bucket_count);
  std::vector<Counters> buckets(static_cast<std::size_t>(bucket_count));
  for (std::size_t i = 0; i < per_rank.size(); ++i) {
    s.total += per_rank[i];
    buckets[(i % static_cast<std::size_t>(physical)) /
            static_cast<std::size_t>(ranks_per_bucket)] += per_rank[i];
  }
  for (const Counters& b : buckets) {
    s.max.words_sent = std::max(s.max.words_sent, b.words_sent);
    s.max.words_recv = std::max(s.max.words_recv, b.words_recv);
    s.max.msgs_sent = std::max(s.max.msgs_sent, b.msgs_sent);
    s.max.msgs_recv = std::max(s.max.msgs_recv, b.msgs_recv);
  }
  return s;
}

namespace {

void add(std::vector<Counters>& by_phase, std::uint32_t phase, Dir dir,
         std::uint64_t words) {
  if (phase >= by_phase.size()) by_phase.resize(phase + 1);
  by_phase[phase].add(dir, words);
}

}  // namespace

CostLedger::CostLedger(int num_ranks) : physical_(num_ranks) {
  PARSYRK_CHECK(num_ranks >= 1);
  ranks_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    ranks_.push_back(std::make_unique<RankState>());
  }
  names_.push_back("default");
  ids_.emplace("default", kDefaultPhase);
}

void CostLedger::set_fold(int physical) {
  PARSYRK_CHECK(physical >= 1 && physical <= static_cast<int>(ranks_.size()));
  physical_ = physical;
}

void CostLedger::set_topology(int ranks_per_node) {
  PARSYRK_CHECK_MSG(ranks_per_node >= 1 && physical_ % ranks_per_node == 0,
                    "topology needs ranks_per_node >= 1 dividing the ",
                    "physical processor count");
  ranks_per_node_ = ranks_per_node;
}

void CostLedger::set_phase(int rank, const std::string& phase) {
  PARSYRK_CHECK(rank >= 0 && rank < static_cast<int>(ranks_.size()));
  std::lock_guard lock(phases_mu_);
  const auto [it, added] =
      ids_.try_emplace(phase, static_cast<std::uint32_t>(names_.size()));
  if (added) names_.push_back(phase);
  if (std::find(listed_.begin(), listed_.end(), it->second) == listed_.end()) {
    listed_.push_back(it->second);
  }
  ranks_[rank]->phase = it->second;
}

void CostLedger::begin_ranks(int rank_begin, int rank_end) {
  PARSYRK_CHECK(rank_begin >= 0 && rank_begin <= rank_end &&
                rank_end <= static_cast<int>(ranks_.size()));
  for (int r = rank_begin; r < rank_end; ++r) {
    ranks_[r]->phase = kDefaultPhase;
  }
}

std::vector<std::string> CostLedger::phase_table() const {
  std::lock_guard lock(phases_mu_);
  return names_;
}

std::vector<std::string> CostLedger::phases() const {
  std::lock_guard lock(phases_mu_);
  std::vector<std::string> out;
  out.reserve(listed_.size());
  for (const std::uint32_t id : listed_) out.push_back(names_[id]);
  return out;
}

void CostLedger::record(int rank, std::uint32_t phase, Dir dir,
                        std::uint64_t words, Tier tier) {
  RankState& r = *ranks_[rank];
  std::lock_guard lock(r.mu);
  add(r.by_phase, phase, dir, words);
  if (tier == Tier::kInter && ranks_per_node_ > 1) {
    add(r.by_phase_inter, phase, dir, words);
  }
}

void CostLedger::reset() {
  for (auto& r : ranks_) {
    std::lock_guard lock(r->mu);
    r->phase = kDefaultPhase;
    r->by_phase.clear();
    r->by_phase_inter.clear();
  }
  std::lock_guard lock(phases_mu_);
  listed_.clear();
}

std::vector<Counters> CostLedger::collect(std::uint32_t phase,
                                          const Snapshot* since,
                                          int rank_begin, int rank_end,
                                          bool inter) const {
  static const std::vector<Counters> kNone;
  std::vector<Counters> out(ranks_.size());
  for (int i = rank_begin; i < rank_end; ++i) {
    const std::vector<Counters>& before =
        since == nullptr
            ? kNone
            : (inter ? since->by_phase_inter_[i] : since->by_phase_[i]);
    const RankState& r = *ranks_[i];
    std::lock_guard lock(r.mu);
    const std::vector<Counters>& now = inter ? r.by_phase_inter : r.by_phase;
    // Phases the rank has no counters for contribute nothing, whatever the
    // snapshot held (a reset() in between reads as no traffic).
    for (std::uint32_t p = 0; p < now.size(); ++p) {
      if (phase != kAllPhases && p != phase) continue;
      out[i] += now[p];
      if (p < before.size()) out[i] -= before[p];
    }
  }
  return out;
}

CostSummary CostLedger::summarize(const std::string* phase,
                                  const Snapshot* since, int rank_begin,
                                  int rank_end, bool inter) const {
  PARSYRK_CHECK_MSG(since == nullptr || since->by_phase_.size() == ranks_.size(),
                    "ledger snapshot is from a different world");
  PARSYRK_CHECK_MSG(rank_begin >= 0 && rank_begin <= rank_end &&
                        rank_end <= static_cast<int>(ranks_.size()),
                    "bad ledger rank range");
  PARSYRK_CHECK_MSG(rank_begin == 0 ||
                        rank_end == static_cast<int>(ranks_.size()) ||
                        physical_ == static_cast<int>(ranks_.size()),
                    "rank-range summaries need an unfolded world");
  PARSYRK_CHECK_MSG(!inter || ranks_per_node_ > 1,
                    "inter-node summaries need a topology with "
                    "ranks_per_node > 1");
  const int ranks_per_bucket = inter ? ranks_per_node_ : 1;
  std::uint32_t id = kAllPhases;
  if (phase != nullptr) {
    std::lock_guard lock(phases_mu_);
    const auto it = ids_.find(*phase);
    if (it == ids_.end()) {  // never interned, so it never ran
      return fold_summary(std::vector<Counters>(ranks_.size()), physical_,
                          ranks_per_bucket);
    }
    id = it->second;
  }
  return fold_summary(collect(id, since, rank_begin, rank_end, inter),
                      physical_, ranks_per_bucket);
}

CostSummary CostLedger::summary() const {
  return summarize(nullptr, nullptr, 0, static_cast<int>(ranks_.size()),
                   /*inter=*/false);
}

CostSummary CostLedger::summary(const std::string& phase) const {
  return summarize(&phase, nullptr, 0, static_cast<int>(ranks_.size()),
                   /*inter=*/false);
}

CostLedger::Snapshot CostLedger::snapshot() const {
  Snapshot snap;
  snap.by_phase_.reserve(ranks_.size());
  snap.by_phase_inter_.reserve(ranks_.size());
  for (const auto& r : ranks_) {
    std::lock_guard lock(r->mu);
    snap.by_phase_.push_back(r->by_phase);
    snap.by_phase_inter_.push_back(r->by_phase_inter);
  }
  return snap;
}

CostSummary CostLedger::summary_since(const Snapshot& since) const {
  return summarize(nullptr, &since, 0, static_cast<int>(ranks_.size()),
                   /*inter=*/false);
}

CostSummary CostLedger::summary_since(const Snapshot& since,
                                      const std::string& phase) const {
  return summarize(&phase, &since, 0, static_cast<int>(ranks_.size()),
                   /*inter=*/false);
}

CostSummary CostLedger::summary_since(const Snapshot& since, int rank_begin,
                                      int rank_end) const {
  return summarize(nullptr, &since, rank_begin, rank_end, /*inter=*/false);
}

CostSummary CostLedger::summary_since(const Snapshot& since,
                                      const std::string& phase,
                                      int rank_begin, int rank_end) const {
  return summarize(&phase, &since, rank_begin, rank_end, /*inter=*/false);
}

CostSummary CostLedger::inter_summary() const {
  return summarize(nullptr, nullptr, 0, static_cast<int>(ranks_.size()),
                   /*inter=*/true);
}

CostSummary CostLedger::inter_summary_since(const Snapshot& since) const {
  return summarize(nullptr, &since, 0, static_cast<int>(ranks_.size()),
                   /*inter=*/true);
}

CostSummary CostLedger::inter_summary_since(const Snapshot& since,
                                            const std::string& phase) const {
  return summarize(&phase, &since, 0, static_cast<int>(ranks_.size()),
                   /*inter=*/true);
}

std::vector<Counters> CostLedger::per_rank_since(const Snapshot& since) const {
  PARSYRK_CHECK_MSG(since.by_phase_.size() == ranks_.size(),
                    "ledger snapshot is from a different world");
  return collect(kAllPhases, &since, 0, static_cast<int>(ranks_.size()),
                 /*inter=*/false);
}

std::vector<Counters> CostLedger::per_rank() const {
  return collect(kAllPhases, nullptr, 0, static_cast<int>(ranks_.size()),
                 /*inter=*/false);
}

}  // namespace parsyrk::comm

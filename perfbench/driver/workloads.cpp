// The three workloads: two closed loops on a warm core::Session and one
// open-loop-then-saturation mix on service::SyrkService.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/planner.hpp"
#include "matrix/kernels.hpp"
#include "matrix/random.hpp"
#include "replay.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using parsyrk::Matrix;
namespace comm = parsyrk::comm;
namespace core = parsyrk::core;
namespace service = parsyrk::service;
namespace trace = parsyrk::trace;

/// Ranks of every Session and SyrkService: fixed, so runs on any machine
/// time the same plans (4 = the core count of the recording machine).
constexpr int kRanks = 4;
/// Rounds per run: each builds a fresh rig (timed as setup) and measures
/// an equal slice of the run on it; run.py reports medians over rounds.
constexpr int kRounds = 30;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Checks one result against its oracle and the words its shape moved the
/// first time. Returns the request's critical-path words.
struct Checker {
  Report& report;
  std::vector<std::uint64_t> first_words;  // per shape, valid once seen
  std::vector<bool> seen;

  Checker(Report& r, std::size_t positions)
      : report(r), first_words(positions, 0), seen(positions, false) {}

  std::uint64_t check(const core::SyrkRun& run, const Matrix& a,
                      const Matrix& oracle, std::size_t pos) {
    ++report.attempted;
    const double err = max_error(run.c, oracle);
    if (!(err <= tolerance(a))) {
      std::ostringstream os;
      os << a.rows() << "x" << a.cols() << ": max |C - oracle| = " << err
         << " > " << tolerance(a);
      report.fail(os.str());
      return run.total.critical_path_words();
    }
    const std::uint64_t words = run.total.critical_path_words();
    if (!seen[pos]) {
      seen[pos] = true;
      first_words[pos] = words;
    } else if (words != first_words[pos]) {
      std::ostringstream os;
      os << a.rows() << "x" << a.cols() << ": " << words
         << " critical-path words, earlier requests of the shape moved "
         << first_words[pos];
      report.fail(os.str());
    }
    return words;
  }

  void threw(const std::exception& e) {
    ++report.attempted;
    report.fail(std::string("request threw: ") + e.what());
  }
};

std::string plan_list(const std::vector<core::Plan>& plans) {
  std::string out;
  for (const core::Plan& p : plans) {
    if (!out.empty()) out += "; ";
    out += describe(p);
  }
  return out;
}

// ---- Layer samples (traced runs) -----------------------------------------

/// The layers of one request whose core::syrk span and ledger traffic were
/// measured already: plan resolution, the one-core kernel yardstick, and
/// the replay of the plan's kernels and collectives.
void replay_request(core::Session& session, const core::SyrkRequest& req,
                    const Matrix& a, const Matrix& exec_a, Matrix& one_core_c,
                    std::size_t pos, double syrk_s,
                    const comm::CostSummary& gather_a,
                    const comm::CostSummary& reduce_c, Report& report) {
  const auto p0 = Clock::now();
  const core::PlanReport plan_report = core::resolve_plan_report(session, req);
  const double plan_s = seconds_between(p0, Clock::now());
  const core::Plan plan = plan_report.plan();

  one_core_c.fill(0.0);
  const auto k0 = Clock::now();
  parsyrk::syrk_lower(a.view(), one_core_c.view());
  const double one_core_s = seconds_between(k0, Clock::now());

  const LayerSample layers = replay_layers(session, plan, exec_a);
  if (!same_traffic(layers.gather_a, gather_a) ||
      !same_traffic(layers.reduce_c, reduce_c)) {
    std::ostringstream os;
    os << a.rows() << "x" << a.cols() << " " << describe(plan)
       << ": replayed traffic (gather_A " << layers.gather_a.critical_path_words()
       << ", reduce_C " << layers.reduce_c.critical_path_words()
       << " words) differs from the request's (gather_A "
       << gather_a.critical_path_words() << ", reduce_C "
       << reduce_c.critical_path_words() << ")";
    report.fail(os.str());
  }

  auto& s = report.series;
  s["position"].push_back(static_cast<double>(pos));
  s["core.syrk_s"].push_back(syrk_s);
  s["core.plan_s"].push_back(plan_s);
  s["core.self_s"].push_back(syrk_s - layers.dispatch_s - layers.kernel_s -
                             layers.collective_s);
  s["matrix.kernel_1core_s"].push_back(one_core_s);
  s["matrix.kernel_rank_s"].push_back(layers.kernel_s);
  s["matrix.kernel_macs"].push_back(layers.kernel_macs);
  s["matrix.pack_bytes"].push_back(layers.pack_bytes);
  s["simmpi.dispatch_s"].push_back(layers.dispatch_s);
  s["simmpi.collective_s"].push_back(layers.collective_s);
  s["simmpi.imbalance_s"].push_back(layers.imbalance_s);
  s["simmpi.gather_A.words"].push_back(
      static_cast<double>(layers.gather_a.critical_path_words()));
  s["simmpi.gather_A.messages"].push_back(
      static_cast<double>(critical_path_messages(layers.gather_a)));
  s["simmpi.reduce_C.words"].push_back(
      static_cast<double>(layers.reduce_c.critical_path_words()));
  s["simmpi.reduce_C.messages"].push_back(
      static_cast<double>(critical_path_messages(layers.reduce_c)));
}

/// One traced block of `count` requests: spans around back-to-back
/// core::syrk calls (timed as the untraced loop times them), then one layer
/// replay per request, each checked against its request's ledger traffic.
/// Replays run after the block so they do not disturb the spans.
void trace_block(core::Session& session, const core::SyrkRequest& req,
                 const Matrix& a, const Matrix& oracle, const Matrix& exec_a,
                 Matrix& one_core_c, std::size_t pos, int count,
                 Checker& checker, Report& report) {
  struct Real {
    double syrk_s;
    comm::CostSummary gather_a;
    comm::CostSummary reduce_c;
  };
  std::vector<Real> reals;
  for (int i = 0; i < count; ++i) {
    try {
      const auto t0 = Clock::now();
      core::SyrkRun run = core::syrk(session, req);
      const double syrk_s = seconds_between(t0, Clock::now());
      checker.check(run, a, oracle, pos);
      reals.push_back({syrk_s, run.gather_a, run.reduce_c});
    } catch (const std::exception& e) {
      checker.threw(e);
    }
  }
  for (const Real& real : reals) {
    replay_request(session, req, a, exec_a, one_core_c, pos, real.syrk_s,
                   real.gather_a, real.reduce_c, report);
  }
}

// ---- Service layer -------------------------------------------------------

/// One submitted service request as the generator tracks it.
struct Pending {
  service::SyrkTicket ticket;
  std::size_t pos = 0;
  int round = 0;
  Clock::time_point due;
  Clock::time_point submitted;
};

/// Service-layer observations of one phase, kept as raw samples.
struct ServicePhase {
  std::vector<double> latency_s;  // due -> completion
  std::vector<double> round;      // round of each latency sample
  std::vector<double> queue_s;
  std::vector<double> exec_s;
  std::vector<double> late_s;     // submit - due
  std::vector<double> submit_s;   // span around SyrkService::submit
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  double words = 0.0;
  double macs = 0.0;
  Clock::time_point last_done{};

  /// Outstanding requests at each submission, from submit/completion pairs.
  std::vector<double> outstanding() const {
    std::vector<double> out;
    out.reserve(spans.size());
    std::priority_queue<Clock::time_point, std::vector<Clock::time_point>,
                        std::greater<>>
        done;
    for (const auto& [sub, fin] : spans) {
      while (!done.empty() && done.top() <= sub) done.pop();
      out.push_back(static_cast<double>(done.size()));
      done.push(fin);
    }
    return out;
  }
};

/// Records a finished ticket (or its failure) into `phase`.
void consume(Pending& p, const std::vector<Matrix>& inputs,
             const std::vector<Matrix>& oracles, Checker& checker,
             ServicePhase& phase) {
  try {
    const service::SyrkResult& r = p.ticket.wait();
    const double late = seconds_between(p.due, p.submitted);
    const auto done =
        p.submitted + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(r.latency.total_seconds));
    phase.latency_s.push_back(late + r.latency.total_seconds);
    phase.round.push_back(p.round);
    phase.late_s.push_back(late);
    phase.queue_s.push_back(r.latency.queue_seconds);
    phase.exec_s.push_back(r.latency.service_seconds);
    phase.spans.emplace_back(p.submitted, done);
    phase.last_done = std::max(phase.last_done, done);
    phase.words += static_cast<double>(
        checker.check(r.run, inputs[p.pos], oracles[p.pos], p.pos));
    phase.macs += useful_macs(inputs[p.pos]);
  } catch (const std::exception& e) {
    checker.threw(e);
  }
  p.ticket = service::SyrkTicket();  // drop the result's C now
}

/// The service-layer samples of a phase, as series for run.py.
void record_service_samples(const ServicePhase& phase, Report& report) {
  report.series["service.queue_s"] = phase.queue_s;
  report.series["service.exec_s"] = phase.exec_s;
  report.series["service.generator_late_s"] = phase.late_s;
  report.series["service.outstanding"] = phase.outstanding();
}

/// Adds the service's counters between two stats() readings, and its
/// timeline intervals from `first_interval` on, to report.scalars.
void add_service_counters(const service::ServiceStats& before,
                          const service::ServiceStats& after,
                          const trace::ServiceTimeline& timeline,
                          std::size_t first_interval, Report& report) {
  auto& sc = report.scalars;
  sc["service.jobs"] +=
      static_cast<double>(after.completed - before.completed);
  sc["service.gap_s"] +=
      after.scheduler_gap_seconds - before.scheduler_gap_seconds;
  sc["service.rounds"] += static_cast<double>(after.rounds - before.rounds);
  sc["service.interleaved_jobs"] +=
      static_cast<double>(after.interleaved_jobs - before.interleaved_jobs);
  sc["service.plan_cache_hits"] +=
      static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  sc["service.plan_cache_lookups"] += static_cast<double>(
      after.plan_cache.hits + after.plan_cache.misses -
      before.plan_cache.hits - before.plan_cache.misses);
  double busy = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  const auto& iv = timeline.intervals();
  for (std::size_t i = first_interval; i < iv.size(); ++i) {
    busy += (iv[i].end_seconds - iv[i].start_seconds) *
            (iv[i].rank_end - iv[i].rank_begin);
    lo = i == first_interval ? iv[i].start_seconds
                             : std::min(lo, iv[i].start_seconds);
    hi = std::max(hi, iv[i].end_seconds);
  }
  sc["service.busy_rank_s"] += busy;
  sc["service.window_rank_s"] += (hi - lo) * timeline.ranks();
}

/// A SyrkService on a fresh pool of its own (declared first, so it outlives
/// the service): constructing one spawns its threads.
struct ServiceRig {
  ServiceRig() {
    service::ServiceOptions options;
    options.procs = kRanks;
    options.pool = &pool;
    svc = std::make_unique<service::SyrkService>(options);
  }
  comm::WorkerPool pool;
  std::unique_ptr<service::SyrkService> svc;
};

/// The workload's request pushed through a SyrkService in a closed loop,
/// so session workloads report the service layer's cost for their shape.
void service_side_pass(const core::SyrkRequest& req, const Matrix& a,
                       const Matrix& oracle, int requests, Checker& checker,
                       Report& report) {
  ServiceRig rig;
  service::SyrkService& svc = *rig.svc;
  const std::vector<Matrix> inputs = {a};
  const std::vector<Matrix> oracles = {oracle};
  ServicePhase warm;
  Pending first{svc.submit(req), 0, 0, Clock::now(), Clock::now()};
  consume(first, inputs, oracles, checker, warm);

  const service::ServiceStats before = svc.stats();
  const std::size_t first_interval = svc.timeline().intervals().size();
  ServicePhase phase;
  for (int i = 0; i < requests; ++i) {
    // Closed loop: a request is due once the caller has handled the
    // previous reply, so the generator is never behind a schedule.
    Pending p;
    p.due = Clock::now();
    p.submitted = Clock::now();
    p.ticket = svc.submit(req);
    phase.submit_s.push_back(seconds_between(p.submitted, Clock::now()));
    consume(p, inputs, oracles, checker, phase);
  }
  svc.drain();
  record_service_samples(phase, report);
  report.series["service.submit_s"] = phase.submit_s;
  add_service_counters(before, svc.stats(), svc.timeline(), first_interval,
                       report);
}

// ---- Session workloads ---------------------------------------------------

struct SessionShape {
  std::size_t n1;
  std::size_t n2;
  bool pinned_1d;
};

SessionShape session_shape(const std::string& name) {
  if (name == "skinny_planned") return {2048, 64, false};
  return {1024, 512, true};  // wide_1d
}

/// A Session on a fresh pool of its own, like ServiceRig.
struct SessionRig {
  SessionRig() : session(std::make_unique<core::Session>(kRanks, pool)) {}
  comm::WorkerPool pool;
  std::unique_ptr<core::Session> session;
};

}  // namespace

double max_error(const Matrix& c, const Matrix& oracle) {
  if (c.rows() != oracle.rows() || c.cols() != oracle.cols()) {
    return HUGE_VAL;
  }
  double m = 0.0;
  for (std::size_t i = 0; i < c.rows(); ++i) {
    const double* x = c.data() + i * c.ld();
    const double* y = oracle.data() + i * oracle.ld();
    for (std::size_t j = 0; j < c.cols(); ++j) {
      const double d = std::abs(x[j] - y[j]);
      m = d > m || std::isnan(d) ? d : m;
    }
  }
  return m;
}

std::string describe(const core::Plan& plan) {
  std::ostringstream os;
  os << core::algorithm_name(plan.algorithm) << " procs=" << plan.procs;
  if (plan.c != 0) os << " c=" << plan.c;
  if (plan.algorithm == core::Algorithm::kThreeD) os << " p2=" << plan.p2;
  os << " logical=" << plan.logical << " padded_n1=" << plan.padded_n1;
  return os.str();
}

void run_session_workload(const Options& opt, Report& report) {
  const SessionShape shape = session_shape(opt.workload);
  const Matrix a = parsyrk::random_matrix(shape.n1, shape.n2, opt.seed);
  const Matrix oracle = parsyrk::syrk_reference(a.view());
  core::SyrkRequest req(a);
  if (shape.pinned_1d) req.use_1d();
  Checker checker(report, 1);
  report.info["shape"] =
      std::to_string(shape.n1) + "x" + std::to_string(shape.n2);
  report.info["ranks"] = std::to_string(kRanks);
  report.info["arrival"] = "closed loop, one caller";
  report.info["request"] = shape.pinned_1d ? ".use_1d()" : "planner default";

  const double macs = useful_macs(a);
  double words = 0.0;
  std::size_t completed = 0;

  // Closed loop on one rig; every kBurst consecutive requests form one
  // throughput sample over the time spent inside syrk().
  constexpr int kBurst = 8;
  auto closed_loop = [&](core::Session& session, double budget, int round) {
    const auto start = Clock::now();
    Report::Burst burst{0.0, 0.0, 0.0};
    while (seconds_between(start, Clock::now()) < budget) {
      try {
        const auto t0 = Clock::now();
        core::SyrkRun run = core::syrk(session, req);
        const double dt = seconds_between(t0, Clock::now());
        report.latency_s.push_back(dt);
        report.latency_round.push_back(round);
        burst = {burst.requests + 1, burst.macs + macs, burst.seconds + dt};
        if (burst.requests == kBurst) {
          report.bursts.push_back(burst);
          burst = {0.0, 0.0, 0.0};
        }
        ++completed;
        words += static_cast<double>(checker.check(run, a, oracle, 0));
      } catch (const std::exception& e) {
        checker.threw(e);
        if (report.failed > 10) break;
      }
    }
    if (burst.requests > 0) report.bursts.push_back(burst);
  };

  // Rounds: each builds a fresh pool and Session and runs its first
  // request (the timed setup), then measures a closed-loop slice on it, so
  // thread placement and allocator state are drawn anew kRounds times.
  // Traced runs measure untraced for half the time, then trace the last rig.
  const double measured = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::unique_ptr<SessionRig> rig;
  for (int round = 0; round < kRounds; ++round) {
    rig.reset();
    try {
      const auto t0 = Clock::now();
      auto fresh = std::make_unique<SessionRig>();
      core::SyrkRun run = core::syrk(*fresh->session, req);
      report.setup_s.push_back(seconds_between(t0, Clock::now()));
      checker.check(run, a, oracle, 0);
      report.info["plan"] = describe(run.plan);
      rig = std::move(fresh);
    } catch (const std::exception& e) {
      checker.threw(e);
      continue;
    }
    closed_loop(*rig->session, measured / kRounds, round);
  }

  if (opt.trace && rig) {
    // Each traced sample is a span around core::syrk plus its replay.
    core::Session& session = *rig->session;
    const core::Plan plan = core::resolve_plan(session, req);
    const Matrix exec_a =
        plan.exec_n1(a.rows()) != a.rows()
            ? core::internal::pad_rows(a, plan.exec_n1(a.rows()))
            : a;
    Matrix one_core_c(a.rows(), a.rows());
    const auto start = Clock::now();
    const double budget = opt.seconds / 2 * 0.85;
    while (seconds_between(start, Clock::now()) < budget) {
      try {
        trace_block(session, req, a, oracle, exec_a, one_core_c, 0,
                    /*count=*/8, checker, report);
      } catch (const std::exception& e) {
        checker.threw(e);
        if (report.failed > 10) break;
      }
    }
    report.series["trace.latency_s"] = report.series["core.syrk_s"];
    service_side_pass(req, a, oracle, 12, checker, report);
  }
  report.words_per_request =
      completed > 0 ? words / static_cast<double>(completed) : 0.0;
  report.peak_rss_mb = peak_rss_mb();
}

// ---- Service workload ----------------------------------------------------

namespace {

/// The service_mix menu: small shapes spanning n1 48–256, n2 32–96, and
/// planner caps 1–4. Requests cycle through it in blocks of kMenu, each
/// block a fresh seeded permutation, so every seed offers the same multiset
/// of work and no single order dominates a run.
struct MixShape {
  std::size_t n1;
  std::size_t n2;
  std::uint64_t procs;
};
constexpr MixShape kMix[] = {
    {48, 32, 1},  {64, 48, 2},  {96, 64, 3},   {128, 96, 4},
    {160, 32, 2}, {192, 48, 3}, {224, 64, 4},  {256, 96, 1},
    {48, 96, 4},  {64, 64, 1},  {96, 32, 2},   {128, 48, 3},
    {160, 96, 3}, {192, 64, 4}, {224, 32, 1},  {256, 48, 2},
};
constexpr std::size_t kMenu = std::size(kMix);
/// Offered rate of the open-loop phase (about half the service's capacity
/// on a 4-core machine), and saturation requests per measured second.
constexpr double kOfferedRate = 3500.0;
constexpr double kSaturationPerSecond = 2500.0;

/// `requests` rounded to whole blocks of menu indices, each block a
/// permutation of the menu drawn from `rng`.
std::vector<std::size_t> shape_sequence(parsyrk::Rng& rng, double requests) {
  const auto blocks =
      static_cast<std::size_t>(std::max(1.0, requests / kMenu));
  std::vector<std::size_t> seq;
  seq.reserve(blocks * kMenu);
  std::vector<std::size_t> block(kMenu);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::iota(block.begin(), block.end(), 0);
    for (std::size_t i = kMenu - 1; i > 0; --i) {
      std::swap(block[i], block[rng.next_u64() % (i + 1)]);
    }
    seq.insert(seq.end(), block.begin(), block.end());
  }
  return seq;
}

}  // namespace

void run_service_workload(const Options& opt, Report& report) {
  parsyrk::Rng rng(opt.seed);
  std::vector<Matrix> inputs;
  std::vector<Matrix> oracles;
  std::vector<core::SyrkRequest> requests;
  inputs.reserve(kMenu);
  for (const MixShape& m : kMix) {
    inputs.push_back(parsyrk::random_matrix(m.n1, m.n2, rng.next_u64()));
    oracles.push_back(parsyrk::syrk_reference(inputs.back().view()));
  }
  for (std::size_t m = 0; m < kMenu; ++m) {
    requests.push_back(core::SyrkRequest(inputs[m]).on_procs(kMix[m].procs));
  }
  Checker checker(report, kMenu);
  report.info["shape"] = "16 shapes, n1 48-256, n2 32-96, on_procs 1-4";
  report.info["ranks"] = std::to_string(kRanks);
  report.info["arrival"] = "open loop at " +
                           std::to_string(static_cast<int>(kOfferedRate)) +
                           " req/s, then the same mix offered at once";

  // The generator: one thread, submitting on due times. Timer slack off so
  // sleep_until wakes within microseconds of the due time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  auto open_loop = [&](service::SyrkService& svc, double budget, int round,
                       bool traced, ServicePhase& phase) {
    const std::vector<std::size_t> seq =
        shape_sequence(rng, kOfferedRate * budget);
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kOfferedRate));
    std::deque<Pending> pending;
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const auto due = start + interval * static_cast<std::int64_t>(i);
      // Spare time before the due instant: reap what has completed.
      while (!pending.empty() && Clock::now() < due) {
        try {
          if (pending.front().ticket.try_get() == nullptr) break;
        } catch (const std::exception&) {
          // consume() records the failure.
        }
        consume(pending.front(), inputs, oracles, checker, phase);
        pending.pop_front();
      }
      std::this_thread::sleep_until(due);
      Pending p;
      p.pos = seq[i];
      p.round = round;
      p.due = due;
      p.submitted = Clock::now();
      p.ticket = svc.submit(requests[p.pos]);
      if (traced) {
        phase.submit_s.push_back(seconds_between(p.submitted, Clock::now()));
      }
      pending.push_back(std::move(p));
    }
    for (Pending& p : pending) consume(p, inputs, oracles, checker, phase);
    svc.drain();
  };

  // Saturation: one burst offered at once; its rate is requests over first
  // submit to last completion.
  auto saturation = [&](service::SyrkService& svc, double requests_total,
                        ServicePhase& phase) {
    const std::vector<std::size_t> seq = shape_sequence(rng, requests_total);
    ServicePhase burst;
    std::deque<Pending> pending;
    const auto start = Clock::now();
    for (std::size_t m : seq) {
      Pending p;
      p.pos = m;
      p.submitted = Clock::now();
      p.due = p.submitted;
      p.ticket = svc.submit(requests[m]);
      pending.push_back(std::move(p));
    }
    for (Pending& p : pending) consume(p, inputs, oracles, checker, burst);
    svc.drain();
    report.bursts.push_back({static_cast<double>(seq.size()), burst.macs,
                             seconds_between(start, burst.last_done)});
    phase.words += burst.words;
    phase.latency_s.insert(phase.latency_s.end(), burst.latency_s.begin(),
                           burst.latency_s.end());
  };

  // Rounds: each builds a fresh pool and service and makes one cold pass
  // over the menu, one request at a time (the timed setup: each shape's
  // first request misses the plan cache), then measures an open-loop slice
  // and one saturation burst on it. Traced runs measure untraced for half
  // the time, then trace the last rig.
  const double measured = opt.trace ? opt.seconds / 2 : opt.seconds;
  ServicePhase open;
  ServicePhase sat;
  std::unique_ptr<ServiceRig> rig;
  for (int round = 0; round < kRounds; ++round) {
    rig.reset();
    const std::vector<std::size_t> first = shape_sequence(rng, kMenu);
    std::vector<service::SyrkResult> results;
    try {
      const auto t0 = Clock::now();
      auto fresh = std::make_unique<ServiceRig>();
      for (std::size_t m : first) {
        results.push_back(fresh->svc->syrk(requests[m]));
      }
      report.setup_s.push_back(seconds_between(t0, Clock::now()));
      rig = std::move(fresh);
    } catch (const std::exception& e) {
      checker.threw(e);
      continue;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      checker.check(results[i].run, inputs[first[i]], oracles[first[i]],
                    first[i]);
    }
    service::SyrkService& svc = *rig->svc;
    const service::ServiceStats before = svc.stats();
    const std::size_t first_interval = svc.timeline().intervals().size();
    open_loop(svc, measured * 0.6 / kRounds, round, /*traced=*/false, open);
    if (opt.trace) {
      add_service_counters(before, svc.stats(), svc.timeline(),
                           first_interval, report);
    }
    saturation(svc, kSaturationPerSecond * measured / kRounds, sat);
  }
  if (!rig) return;
  service::SyrkService& svc = *rig->svc;
  {
    std::vector<core::Plan> plans;
    for (const core::SyrkRequest& req : requests) {
      plans.push_back(core::resolve_plan(svc.session(), req));
    }
    report.info["plan"] = plan_list(plans);
  }

  report.latency_s = open.latency_s;
  report.latency_round = open.round;
  const double n_total =
      static_cast<double>(open.latency_s.size() + sat.latency_s.size());
  report.words_per_request = n_total > 0 ? (open.words + sat.words) / n_total
                                         : 0.0;

  if (opt.trace) {
    record_service_samples(open, report);
    // Traced open loop: the generator additionally records a span around
    // every submit; its latency median against the untraced one is the
    // tracing overhead.
    ServicePhase traced;
    open_loop(svc, opt.seconds * 0.25, kRounds, /*traced=*/true, traced);
    report.series["trace.latency_s"] = traced.latency_s;
    report.series["service.submit_s"] = traced.submit_s;

    // Layer samples: blocks of core::syrk on the service's own (drained)
    // session for every menu shape, each followed by its replays.
    core::Session& session = svc.session();
    std::vector<Matrix> exec_inputs;
    std::vector<Matrix> one_core;
    for (std::size_t m = 0; m < kMenu; ++m) {
      const core::Plan plan = core::resolve_plan(session, requests[m]);
      const std::size_t rows = plan.exec_n1(inputs[m].rows());
      exec_inputs.push_back(rows != inputs[m].rows()
                                ? core::internal::pad_rows(inputs[m], rows)
                                : inputs[m]);
      one_core.emplace_back(inputs[m].rows(), inputs[m].rows());
    }
    const auto start = Clock::now();
    const double budget = opt.seconds * 0.2;
    do {
      for (std::size_t m = 0; m < kMenu; ++m) {
        try {
          trace_block(session, requests[m], inputs[m], oracles[m],
                      exec_inputs[m], one_core[m], m, /*count=*/4, checker,
                      report);
        } catch (const std::exception& e) {
          checker.threw(e);
        }
      }
    } while (seconds_between(start, Clock::now()) < budget &&
             report.failed <= 10);
  }
  report.peak_rss_mb = peak_rss_mb();
}

}  // namespace perfbench

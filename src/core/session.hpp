// The unified SYRK entry point: a Session owning a warm world, and
// syrk(Session&, SyrkRequest) executing one request per call.
//
//   parsyrk::core::Session session(12);          // 12 parked workers, leased
//   parsyrk::Matrix a = parsyrk::random_matrix(180, 64, /*seed=*/1);
//   auto run = parsyrk::core::syrk(session, parsyrk::core::SyrkRequest(a));
//
// A Session acquires its workers from the shared pool once, at
// construction; every request dispatches to the already-parked threads (no
// thread is created or joined per call), which is what makes issuing many
// small SYRKs cheap. Each returned SyrkRun carries ledger summaries scoped
// to that request alone, even though the session's world accumulates across
// requests.
//
// A request defaults to the §5.4 planner over the session's ranks; use the
// fluent setters for an explicit algorithm/grid, root-held input, a planner
// processor cap, or memory-aware planning (§6).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "core/planner.hpp"
#include "core/syrk.hpp"
#include "matrix/matrix.hpp"
#include "simmpi/comm.hpp"
#include "support/check.hpp"

namespace parsyrk::core {

/// Customization point for plan-search resolution: given the problem shape,
/// the effective processor cap, and the search options, produce the full
/// PlanReport. The service layer's plan cache installs one of these on its
/// Session so repeated shapes skip the enumerator; the default (no resolver)
/// runs enumerate_syrk_plans directly. A resolver is only consulted for
/// planner-path requests — explicit algorithms and memory-aware planning
/// never go through it.
using PlanResolver = std::function<std::shared_ptr<const PlanReport>(
    std::uint64_t n1, std::uint64_t n2, std::uint64_t max_procs,
    const PlanSearchOptions& options)>;

/// Owns a warm world of a fixed rank count. Construct once, issue many
/// requests; requests may use up to size() ranks (smaller plans run on an
/// active-ranks sub-communicator, idle ranks sit the job out).
class Session {
 public:
  /// Leases `num_ranks` workers from the process-wide shared pool.
  explicit Session(int num_ranks)
      : world_(num_ranks), pool_(&comm::WorkerPool::shared()) {}
  /// Leases from a caller-owned pool (tests/benches isolate pools this way).
  Session(int num_ranks, comm::WorkerPool& pool)
      : world_(num_ranks, pool), pool_(&pool) {}

  int size() const { return world_.size(); }
  /// Requests executed so far (each syrk() call is one job on the world).
  std::uint64_t jobs_run() const { return world_.jobs_run(); }

  /// The underlying runtime, for callers that mix syrk() with their own
  /// SPMD jobs (e.g. a Cholesky on the SYRK output) on the same warm pool.
  comm::World& world() { return world_; }

  /// The world `plan` executes on: the session's own world for unfolded
  /// plans, or — when the planner folded a logical grid onto fewer physical
  /// ranks — a dedicated folded world of plan.logical_ranks() ranks on
  /// plan.procs physical ranks, leased from the same pool. Folded worlds
  /// are cached by (logical, physical), so repeated folded requests stay
  /// warm just like unfolded ones.
  comm::World& world_for(const Plan& plan);

  /// Enables per-message tracing on the session's world; subsequent traced
  /// requests (SyrkRequest::with_trace) drain their job's events into
  /// SyrkRun::trace. Requests that opt in enable this automatically, so
  /// calling it explicitly is only needed to size the ring buffers.
  void enable_tracing(
      std::size_t capacity_per_rank = comm::TraceSink::kDefaultCapacity) {
    world_.enable_tracing(capacity_per_rank);
  }

  /// Default search options for planner-path requests on this session (and
  /// the options handed to the plan resolver). Set before issuing requests.
  void set_plan_options(PlanSearchOptions options) {
    plan_options_ = std::move(options);
  }
  const PlanSearchOptions& plan_options() const { return plan_options_; }

  /// Installs (or clears, with nullptr) the plan-search resolver consulted
  /// by resolve_plan_report()/syrk() on the planner path. The caller is
  /// responsible for invalidating any cached reports the resolver holds if
  /// they were computed for a different physical worker count — fold
  /// factors in a cached report are only valid for the max_procs they were
  /// enumerated at.
  void set_plan_resolver(PlanResolver resolver) {
    plan_resolver_ = std::move(resolver);
  }
  const PlanResolver& plan_resolver() const { return plan_resolver_; }

 private:
  comm::World world_;
  comm::WorkerPool* pool_;
  std::map<std::pair<int, int>, std::unique_ptr<comm::World>> folded_worlds_;
  PlanSearchOptions plan_options_;
  PlanResolver plan_resolver_;
};

/// One SYRK problem plus how to run it. The matrix is referenced, not
/// copied — it must outlive the syrk() call.
struct SyrkRequest {
  explicit SyrkRequest(const Matrix& matrix) : a(&matrix) {}

  // ---- Algorithm / grid (default: §5.4 planner over the session) ----

  /// Alg. 1 on `procs` ranks (default: every session rank).
  SyrkRequest& use_1d(std::optional<std::uint64_t> procs = std::nullopt) {
    algorithm = Algorithm::kOneD;
    procs_1d = procs;
    return *this;
  }
  /// Alg. 2 on c(c+1) ranks (c prime, n1 % c² == 0).
  SyrkRequest& use_2d(std::uint64_t prime_c) {
    algorithm = Algorithm::kTwoD;
    c = prime_c;
    return *this;
  }
  /// Alg. 3 on a c(c+1) × p2 grid.
  SyrkRequest& use_3d(std::uint64_t prime_c, std::uint64_t slices) {
    algorithm = Algorithm::kThreeD;
    c = prime_c;
    p2 = slices;
    return *this;
  }

  // ---- Planner inputs (ignored when an algorithm is explicit) ----

  /// Caps the planner's processor count below the session size.
  SyrkRequest& on_procs(std::uint64_t procs) {
    max_procs = procs;
    return *this;
  }
  /// Memory-aware planning (§6): cheapest plan whose per-rank footprint
  /// fits in `words`; the request fails when nothing fits.
  SyrkRequest& with_memory_limit(std::uint64_t words) {
    memory_limit_words = words;
    return *this;
  }

  // ---- Execution options ----

  /// 1D only: A starts on rank `rank` and is scattered first (ledger phase
  /// "scatter_A", reported in SyrkRun::scatter_a).
  SyrkRequest& from_root(int rank) {
    options.root = rank;
    return *this;
  }
  SyrkRequest& with_reduce(ReduceKind kind) {
    options.reduce = kind;
    return *this;
  }
  SyrkRequest& with_exchange(ExchangeKind kind) {
    options.exchange = kind;
    return *this;
  }
  /// Pipelined chunked execution: the k-phase collective runs as `chunks`
  /// segments on nonblocking handles so local work overlaps flight time.
  /// Results are bitwise-identical to blocking for any chunk count, and
  /// chunks=1 replays the blocking schedule exactly (ledger AND trace);
  /// chunks>1 keeps word volume identical while message count scales.
  /// Requires pairwise collectives and no from_root ingestion.
  /// Throws InvalidArgument when chunks < 1 — a non-positive chunk count
  /// would otherwise store verbatim and silently select the blocking path.
  SyrkRequest& with_pipeline(int chunks) {
    PARSYRK_REQUIRE(chunks >= 1, "with_pipeline requires chunks >= 1, got ",
                    chunks);
    options.pipeline_chunks = chunks;
    return *this;
  }
  /// Two-level topology: ranks grouped into nodes of `ranks_per_node`
  /// consecutive ranks each. Intra-node traffic is priced/ledgered on the
  /// cheap (α0,β0) tier, inter-node traffic on the scarce (α1,β1) tier, and
  /// the planner may pick hierarchical collectives (node-leader exchange).
  /// ranks_per_node=1 is the flat machine (every rank its own node) and is
  /// byte-identical to not calling this at all.
  SyrkRequest& with_topology(int ranks_per_node) {
    PARSYRK_REQUIRE(ranks_per_node >= 1,
                    "with_topology requires ranks_per_node >= 1, got ",
                    ranks_per_node);
    options.ranks_per_node = ranks_per_node;
    return *this;
  }
  /// Records a per-message trace of this request's job into SyrkRun::trace
  /// (enabling tracing on the session's world if it is not already on).
  SyrkRequest& with_trace() {
    trace = true;
    return *this;
  }
  /// Requests a Theorem-1 bound audit of the run. Implies with_trace() (the
  /// auditor cross-checks the event stream against the ledger). core::syrk
  /// only records the flag and the trace; layers that link the trace
  /// library — service::SyrkService and the CLI — run the BoundAuditor and
  /// attach its report.
  SyrkRequest& with_audit() {
    audit = true;
    trace = true;
    return *this;
  }
  /// Runs this request under the SPMD protocol verifier (collective
  /// matching, deadlock watchdog, leak analysis, topology routing — see
  /// verify/verifier.hpp). Violations throw verify::VerifyError with a
  /// structured, rank-attributed report. Also enabled for every request by
  /// the PARSYRK_VERIFY=1 environment variable.
  SyrkRequest& with_verify() {
    verify = true;
    return *this;
  }

  const Matrix* a = nullptr;
  std::optional<Algorithm> algorithm;          // unset -> planner
  std::uint64_t c = 0;                         // 2D/3D triangle prime
  std::uint64_t p2 = 1;                        // 3D slice count
  std::optional<std::uint64_t> procs_1d;       // 1D rank-count override
  std::optional<std::uint64_t> max_procs;      // planner cap
  std::optional<std::uint64_t> memory_limit_words;  // memory-aware planning
  bool trace = false;                          // drain a JobTrace into the run
  bool audit = false;                          // audit the run (implies trace)
  bool verify = false;                         // SPMD protocol verification
  SyrkOptions options;
};

/// Resolves the request to an executable Plan against the session size
/// (without running anything). Exposed for planning-only callers and tests.
Plan resolve_plan(const Session& session, const SyrkRequest& req);

/// The full plan-search ranking behind resolve_plan: every candidate the
/// enumerator scored, chosen plus rejected, for observability (the CLI's
/// --explain-plan prints PlanReport::explain). Explicit-algorithm and
/// memory-aware requests yield a single-candidate report, since no search
/// ran. resolve_plan(session, req) == resolve_plan_report(session,
/// req).plan() always.
PlanReport resolve_plan_report(const Session& session, const SyrkRequest& req);

/// Executes one request as one job on the session's warm world and returns
/// the result with request-scoped measured costs and the Theorem 1 bound at
/// the plan's processor count. Throws InvalidArgument when the request
/// needs more ranks than the session has, when from_root is combined with a
/// non-1D algorithm, or when no plan fits the memory limit.
SyrkRun syrk(Session& session, const SyrkRequest& req);

namespace internal {

/// A request's plan and options as they will execute.
struct ResolvedRequest {
  Plan plan;
  SyrkOptions options;
};

/// The one resolve step, behind core::syrk and the service's admission:
/// resolve_plan, the session-size check and check_options, then the
/// strategy fix-ups — a pipelined request rides pairwise handles, so the
/// plan's strategy reverts to pairwise; a hierarchical plan pick runs the
/// hierarchical collective kinds wherever with_reduce/with_exchange left
/// them pairwise; and an explicit hierarchical kind on a topology is
/// recorded on the plan, so the plan (and every price taken from it)
/// matches the execution. Throws InvalidArgument as core::syrk documents.
ResolvedRequest resolve_request(const Session& session,
                                const SyrkRequest& req);

/// One request's job: its execution-size buffers, the ledger snapshot
/// taken at launch, and the launched job, whose rank range collect_run
/// reads. The rank bodies refer to it, so it stays in place until the job
/// completes.
struct RequestJob {
  RequestJob() = default;
  RequestJob(const RequestJob&) = delete;
  RequestJob& operator=(const RequestJob&) = delete;

  ExecBuffers exec;
  comm::CostLedger::Snapshot before;
  comm::RangeJob handle;
};

/// The one launch step of a plan on ranks of its own, behind run_resolved's
/// full-size plans and the service's streamed dispatch: builds `job`'s
/// buffers, snapshots the ledger and launches run_syrk_plan_rank on world
/// ranks [base, base + plan.logical_ranks()), which must be idle.
/// `resolved` must outlive the job as well. `on_complete` is
/// World::launch_ranks's.
void launch_request(comm::World& world, const SyrkRequest& req,
                    const ResolvedRequest& resolved, int base, RequestJob& job,
                    std::function<void()> on_complete = {});

/// Runs an already resolved request alone on the world world_for picks,
/// stamped with the request's topology, trace and verify settings, then
/// waits in World::join (which recovers the world and rethrows when a rank
/// failed) and collects its SyrkRun. A full-size plan is the launch step at
/// base 0; a smaller one runs as a whole-world job whose ranks split off
/// the plan's prefix (ledger-muted), the idle ranks sitting the job out.
/// The world must be otherwise idle. core::syrk after its resolve step, and
/// the service's solo path after admission.
SyrkRun run_resolved(Session& session, const SyrkRequest& req,
                     const ResolvedRequest& resolved);

/// The one collect step: the SyrkRun of `job`, a finished launch of `plan`
/// for `req`, read over the job's rank range. It holds the result moved
/// out of the job's buffers; the ledger summaries (total and per phase)
/// over the range since launch; the Theorem 1 bound at plan.procs; on a
/// topology'd world, the plan's node count and the inter-node summary;
/// and, for a traced request, the job's trace drained over the range and
/// rebased to its first rank. The range's ranks must be idle.
SyrkRun collect_run(comm::World& world, const SyrkRequest& req,
                    const Plan& plan, RequestJob& job);

}  // namespace internal

}  // namespace parsyrk::core

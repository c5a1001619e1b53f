// trace_lint: offline SPMD trace verification.
//
// Replays committed PSYRKTRC golden traces (or any write_binary capture)
// through the same invariant engine the dynamic verifier uses — pair flow
// balance, tier balance, completeness — without executing anything.
//
//   trace_lint tests/golden/trace_1d.bin tests/golden/trace_2d.bin
//   trace_lint --ranks-per-node 4 capture.bin
//
// Exit status is 0 when every trace is coherent and 1 when any finding is
// reported (or a file cannot be read). Wired into ctest under the "lint"
// label and into tools/run_lint.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/simmpi/trace.hpp"
#include "src/trace/export.hpp"
#include "src/verify/lint.hpp"

namespace {

using parsyrk::comm::JobTrace;
using parsyrk::comm::Dir;

/// Adapts a decoded JobTrace to the runtime-independent lint input. The
/// binary golden format does not persist topology metadata, so a flat
/// machine is assumed unless the caller overrides ranks_per_node.
parsyrk::verify::LintInput to_lint_input(const JobTrace& trace,
                                         int ranks_per_node) {
  parsyrk::verify::LintInput input;
  input.job = trace.job_id;
  input.ranks = static_cast<int>(trace.ranks);
  if (ranks_per_node > 0) {
    input.ranks_per_node = ranks_per_node;
  } else {
    input.ranks_per_node =
        trace.ranks_per_node > 0 ? static_cast<int>(trace.ranks_per_node) : 1;
  }
  input.dropped = trace.dropped != 0;
  input.events.reserve(trace.events.size());
  for (const auto& e : trace.events) {
    parsyrk::verify::LintEvent le;
    le.rank = e.rank;
    le.peer = e.peer;
    le.sent = e.dir == Dir::kSend;
    le.kind = static_cast<std::uint8_t>(e.kind);
    le.kind_name = parsyrk::comm::op_kind_name(e.kind);
    le.words = e.words;
    le.phase = trace.phase_name(e);
    input.events.push_back(std::move(le));
  }
  return input;
}

int lint_file(const std::string& path, int ranks_per_node) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    std::cerr << "trace_lint: cannot open " << path << "\n";
    return 1;
  }
  JobTrace trace;
  try {
    trace = parsyrk::trace::read_binary(is);
  } catch (const std::exception& e) {
    std::cerr << "trace_lint: " << path << ": " << e.what() << "\n";
    return 1;
  }
  if (trace.poisoned) {
    // A poisoned job legitimately has unmatched sends (the failing rank
    // stopped receiving); balance findings would be noise, not defects.
    std::cout << path << ": SKIP (poisoned trace; " << trace.events.size()
              << " events not certifiable)\n";
    return 0;
  }
  const auto report =
      parsyrk::verify::lint_trace(to_lint_input(trace, ranks_per_node));
  if (report.empty()) {
    std::cout << path << ": OK (" << trace.events.size() << " events, "
              << trace.ranks << " ranks, " << trace.phases.size()
              << " phases)\n";
    return 0;
  }
  std::cerr << path << ": " << report.findings.size() << " finding(s)\n"
            << report.to_string();
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int ranks_per_node = 0;  // 0 = honor the trace's own metadata (flat if none)
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ranks-per-node") == 0 && i + 1 < argc) {
      ranks_per_node = std::atoi(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::cout << "usage: trace_lint [--ranks-per-node N] trace.bin...\n";
      return 0;
    }
    paths.emplace_back(argv[i]);
  }
  if (paths.empty()) {
    std::cerr << "usage: trace_lint [--ranks-per-node N] trace.bin...\n";
    return 2;
  }
  int rc = 0;
  for (const auto& p : paths) rc |= lint_file(p, ranks_per_node);
  return rc;
}

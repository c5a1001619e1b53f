// perfbench_driver: runs one workload and prints its raw measurements as
// one JSON object on the last line of standard output.
//
//   perfbench_driver --workload skinny_planned --seed 1 --seconds 10 --trace 0
//
// Exits 0 when every request returned the oracle's C (perfbench/run.py
// applies the remaining checks), 1 on a wrong or failed request, 2 on bad
// arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "matrix/ukernel.hpp"

namespace {

using perfbench::Report;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += number(xs[i]);
  }
  return out + "]";
}

template <typename Map, typename Fn>
std::string object(const Map& m, Fn&& value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ",";
    first = false;
    out += quoted(k) + ":" + value(v);
  }
  return out + "}";
}

std::string to_json(const Report& r) {
  std::ostringstream os;
  os << "{\"info\":" << object(r.info, quoted)
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i > 0 ? "," : "") << quoted(r.errors[i]);
  }
  os << "],\"setup_s\":" << array(r.setup_s)
     << ",\"latency_s\":" << array(r.latency_s)
     << ",\"latency_round\":" << array(r.latency_round)
     << ",\"bursts\":[";
  for (std::size_t i = 0; i < r.bursts.size(); ++i) {
    const Report::Burst& b = r.bursts[i];
    os << (i > 0 ? "," : "") << "[" << number(b.requests) << ","
       << number(b.macs) << "," << number(b.seconds) << "]";
  }
  os << "],\"words_per_request\":" << number(r.words_per_request)
     << ",\"peak_rss_mb\":" << number(r.peak_rss_mb)
     << ",\"series\":" << object(r.series, array)
     << ",\"scalars\":" << object(r.scalars, number) << "}";
  return os.str();
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload "
               "skinny_planned|wide_1d|service_mix --seed N --seconds S "
               "--trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = val == "1";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(opt.seconds > 0.0)) return usage();

  Report report;
  report.info["workload"] = opt.workload;
  report.info["seed"] = std::to_string(opt.seed);
  report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.info["ukernel"] = parsyrk::kern::active_ukernel().name;
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
  try {
    if (opt.workload == "skinny_planned" || opt.workload == "wide_1d") {
      perfbench::run_session_workload(opt, report);
    } else if (opt.workload == "service_mix") {
      perfbench::run_service_workload(opt, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
  }
  std::cout << to_json(report) << std::endl;
  return report.failed == 0 ? 0 : 1;
}

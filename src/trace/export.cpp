#include "trace/export.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace parsyrk::trace {

// ---------------------------------------------------------------------------
// Chrome tracing JSON
// ---------------------------------------------------------------------------

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(ch >> 4) & 0xF] << hex[ch & 0xF];
        } else {
          os << ch;
        }
    }
  }
}

}  // namespace

void write_chrome_json(std::ostream& os, const comm::JobTrace& trace) {
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"job\":" << trace.job_id
     << ",\"ranks\":" << trace.ranks
     << ",\"poisoned\":" << (trace.poisoned ? "true" : "false")
     << ",\"dropped\":" << trace.dropped << "},\"traceEvents\":[";
  bool first = true;
  for (std::uint32_t r = 0; r < trace.ranks; ++r) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << r
       << ",\"args\":{\"name\":\"rank " << r << "\"}}";
  }
  // Overlap lanes: one synthetic thread per rank (tid = ranks + rank) so the
  // pipelined in-flight windows render beneath that rank's event lane.
  if (!trace.overlaps.empty()) {
    for (std::uint32_t r = 0; r < trace.ranks; ++r) {
      os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
         << (trace.ranks + r) << ",\"args\":{\"name\":\"rank " << r
         << " overlap\"}}";
    }
  }
  for (const auto& e : trace.events) {
    os << ",\n{\"name\":\"";
    json_escape(os, std::string(op_kind_name(e.kind)) +
                        (e.dir == comm::Dir::kSend ? " send" : " recv"));
    os << "\",\"cat\":\"";
    json_escape(os, trace.phase_name(e));
    os << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << e.rank
       << ",\"ts\":" << e.ordinal << ",\"dur\":1,\"args\":{\"peer\":" << e.peer
       << ",\"words\":" << e.words << ",\"bytes\":" << e.bytes()
       << ",\"phase\":\"";
    json_escape(os, trace.phase_name(e));
    os << "\"}}";
  }
  for (const auto& o : trace.overlaps) {
    const std::uint64_t dur = o.complete_ordinal > o.post_ordinal
                                  ? o.complete_ordinal - o.post_ordinal
                                  : 1;
    os << ",\n{\"name\":\"chunk " << o.chunk
       << " in flight\",\"cat\":\"overlap\",\"ph\":\"X\",\"pid\":0,\"tid\":"
       << (trace.ranks + static_cast<std::uint32_t>(o.rank))
       << ",\"ts\":" << o.post_ordinal << ",\"dur\":" << dur
       << ",\"args\":{\"chunk\":" << o.chunk << ",\"words\":" << o.words
       << ",\"flops\":" << o.flops << "}}";
  }
  os << "\n]}\n";
}

std::string to_chrome_json(const comm::JobTrace& trace) {
  std::ostringstream os;
  write_chrome_json(os, trace);
  return os.str();
}

// ---------------------------------------------------------------------------
// Binary golden format
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'P', 'S', 'Y', 'R', 'K', 'T', 'R', 'C'};
constexpr std::uint32_t kVersion = 1;

void put_u32(std::ostream& os, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(b, 4);
}

void put_u64(std::ostream& os, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(b, 8);
}

std::uint32_t get_u32(std::istream& is) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), 4);
  PARSYRK_REQUIRE(is.good(), "truncated trace stream");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(std::istream& is) {
  unsigned char b[8];
  is.read(reinterpret_cast<char*>(b), 8);
  PARSYRK_REQUIRE(is.good(), "truncated trace stream");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

}  // namespace

void write_binary(std::ostream& os, const comm::JobTrace& trace) {
  os.write(kMagic, sizeof(kMagic));
  put_u32(os, kVersion);
  put_u32(os, trace.ranks);
  put_u32(os, trace.poisoned ? 1 : 0);
  put_u64(os, trace.dropped);
  put_u32(os, static_cast<std::uint32_t>(trace.phases.size()));
  for (const auto& p : trace.phases) {
    put_u32(os, static_cast<std::uint32_t>(p.size()));
    os.write(p.data(), static_cast<std::streamsize>(p.size()));
  }
  put_u64(os, trace.events.size());
  for (const auto& e : trace.events) {
    put_u64(os, e.ordinal);
    put_u64(os, e.words);
    put_u32(os, static_cast<std::uint32_t>(e.rank));
    put_u32(os, static_cast<std::uint32_t>(e.peer));
    put_u32(os, e.phase);
    put_u32(os, (static_cast<std::uint32_t>(e.kind) << 8) |
                    static_cast<std::uint32_t>(e.dir));
  }
  // Overlap section: appended only when a pipelined run recorded intervals,
  // so unpipelined traces stay byte-identical to the pre-overlap format
  // (the reader peeks for EOF). Version stays 1 — the extension is purely
  // additive.
  if (!trace.overlaps.empty()) {
    put_u64(os, trace.overlaps.size());
    for (const auto& o : trace.overlaps) {
      put_u32(os, static_cast<std::uint32_t>(o.rank));
      put_u32(os, o.chunk);
      put_u64(os, o.post_ordinal);
      put_u64(os, o.complete_ordinal);
      put_u64(os, o.words);
      put_u64(os, o.flops);
    }
  }
}

std::string to_binary(const comm::JobTrace& trace) {
  std::ostringstream os;
  write_binary(os, trace);
  return os.str();
}

comm::JobTrace read_binary(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  PARSYRK_REQUIRE(is.good() && std::equal(magic, magic + 8, kMagic),
                  "not a parsyrk trace stream (bad magic)");
  const std::uint32_t version = get_u32(is);
  PARSYRK_REQUIRE(version == kVersion, "trace format version ", version,
                  " unsupported (expected ", kVersion, ")");
  comm::JobTrace t;
  t.ranks = get_u32(is);
  t.poisoned = get_u32(is) != 0;
  t.dropped = get_u64(is);
  const std::uint32_t nphases = get_u32(is);
  t.phases.reserve(nphases);
  for (std::uint32_t i = 0; i < nphases; ++i) {
    const std::uint32_t len = get_u32(is);
    PARSYRK_REQUIRE(len < (1u << 20), "implausible phase-name length ", len);
    std::string name(len, '\0');
    is.read(name.data(), len);
    PARSYRK_REQUIRE(is.good(), "truncated trace stream");
    t.phases.push_back(std::move(name));
  }
  const std::uint64_t nevents = get_u64(is);
  t.events.reserve(nevents);
  for (std::uint64_t i = 0; i < nevents; ++i) {
    comm::TraceEvent e;
    e.ordinal = get_u64(is);
    e.words = get_u64(is);
    e.rank = static_cast<std::int32_t>(get_u32(is));
    e.peer = static_cast<std::int32_t>(get_u32(is));
    e.phase = get_u32(is);
    const std::uint32_t kd = get_u32(is);
    e.kind = static_cast<comm::OpKind>((kd >> 8) & 0xFF);
    e.dir = static_cast<comm::Dir>(kd & 0xFF);
    PARSYRK_REQUIRE(e.phase < t.phases.size(), "event references phase ",
                    e.phase, " but the table has ", t.phases.size());
    t.events.push_back(e);
  }
  // Optional overlap section (pipelined runs only): peek for EOF first so
  // legacy streams without the section still read cleanly.
  if (is.peek() != std::istream::traits_type::eof()) {
    const std::uint64_t noverlaps = get_u64(is);
    t.overlaps.reserve(noverlaps);
    for (std::uint64_t i = 0; i < noverlaps; ++i) {
      comm::OverlapInterval o;
      o.rank = static_cast<std::int32_t>(get_u32(is));
      o.chunk = get_u32(is);
      o.post_ordinal = get_u64(is);
      o.complete_ordinal = get_u64(is);
      o.words = get_u64(is);
      o.flops = get_u64(is);
      PARSYRK_REQUIRE(o.rank >= 0 &&
                          static_cast<std::uint32_t>(o.rank) < t.ranks,
                      "overlap interval references rank ", o.rank,
                      " but the trace has ", t.ranks);
      t.overlaps.push_back(o);
    }
  }
  return t;
}

comm::JobTrace from_binary(const std::string& bytes) {
  std::istringstream is(bytes);
  return read_binary(is);
}

// ---------------------------------------------------------------------------
// Rollup
// ---------------------------------------------------------------------------

Rollup::Rollup(const comm::JobTrace& trace)
    : ranks_(trace.ranks),
      physical_(trace.physical_ranks != 0 ? trace.physical_ranks : trace.ranks),
      phases_(trace.phases) {
  by_phase_.assign(phases_.size(), std::vector<comm::Counters>(ranks_));
  for (const auto& e : trace.events) {
    PARSYRK_CHECK_MSG(e.phase < by_phase_.size() &&
                          e.rank >= 0 &&
                          static_cast<std::uint32_t>(e.rank) < ranks_,
                      "trace event out of range (rank ", e.rank, ", phase ",
                      e.phase, ")");
    by_phase_[e.phase][e.rank].add(e.dir, e.words);
  }
}

std::vector<comm::Counters> Rollup::per_rank(const std::string& phase) const {
  auto it = std::find(phases_.begin(), phases_.end(), phase);
  if (it == phases_.end()) return std::vector<comm::Counters>(ranks_);
  return by_phase_[static_cast<std::size_t>(it - phases_.begin())];
}

std::vector<comm::Counters> Rollup::per_rank() const {
  std::vector<comm::Counters> out(ranks_);
  for (const auto& phase : by_phase_) {
    for (std::uint32_t r = 0; r < ranks_; ++r) out[r] += phase[r];
  }
  return out;
}

comm::CostSummary Rollup::summary(const std::string& phase) const {
  return comm::fold_summary(per_rank(phase), static_cast<int>(physical_));
}

comm::CostSummary Rollup::summary() const {
  return comm::fold_summary(per_rank(), static_cast<int>(physical_));
}

bool Rollup::matches(const std::vector<comm::Counters>& ledger_per_rank) const {
  if (ledger_per_rank.size() != ranks_) return false;
  const auto mine = per_rank();
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    if (!(mine[r] == ledger_per_rank[r])) return false;
  }
  return true;
}

}  // namespace parsyrk::trace

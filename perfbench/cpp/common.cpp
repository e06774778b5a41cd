#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "core/matcher.hpp"
#include "tcp/profiles.hpp"
#include "util/mem_tracker.hpp"

namespace perfbench {

namespace core = tcpanaly::core;
namespace report = tcpanaly::report;

CaptureWorkload capture_workload(const std::string& name, bool smoke) {
  CaptureWorkload w;
  if (name == "busy_link") {
    // Header-only capture of many short, interleaved connections.
    w.capture_name = "busy_link.pcap";
    w.snaplen = 68;
    w.flows = smoke ? 60 : 2000;
    w.transfer_bytes = 16 * 1024;
  } else if (name == "long_flows") {
    // Full-snaplen pcapng of a few long lossy bulk transfers, triaged
    // against one profile.
    w.capture_name = "long_flows.pcapng";
    w.pcapng = true;
    w.flows = smoke ? 2 : 4;
    w.transfer_bytes = (smoke ? 256u : 2048u) * 1024u;
    w.candidates = {"Generic Reno"};
  } else {
    throw std::invalid_argument("unknown capture workload: " + name);
  }
  return w;
}

std::vector<tcpanaly::tcp::TcpProfile> resolve_candidates(
    const std::vector<std::string>& names) {
  if (names.empty()) return tcpanaly::tcp::all_profiles();
  std::vector<tcpanaly::tcp::TcpProfile> out;
  for (const auto& n : names) {
    auto p = tcpanaly::tcp::find_profile(n);
    if (!p) throw std::invalid_argument("unknown profile: " + n);
    out.push_back(std::move(*p));
  }
  return out;
}

tcpanaly::daemon::CaptureJobOptions job_options(
    std::vector<tcpanaly::tcp::TcpProfile> candidates,
    tcpanaly::util::MemTracker* stream_mem) {
  tcpanaly::daemon::CaptureJobOptions o;
  o.candidates = std::move(candidates);
  o.analyze.match.jobs = 1;
  o.stream_mem = stream_mem;
  return o;
}

// ---- manifest ---------------------------------------------------------------

// Line format, tab separated:
//   capture <key> <path> <records>
//   ref <normalized row>          (rows of the preceding capture)
//   truth <src endpoint> <profile>
void write_manifest(const fs::path& file, const std::vector<SourceCapture>& caps) {
  std::ofstream out(file);
  for (const auto& c : caps) {
    out << "capture\t" << c.key << '\t' << c.path.string() << '\t' << c.records << '\n';
    for (const auto& r : c.reference) out << "ref\t" << r << '\n';
    for (const auto& [src, prof] : c.truth) out << "truth\t" << src << '\t' << prof << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

std::vector<SourceCapture> read_manifest(const fs::path& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  std::vector<SourceCapture> caps;
  std::string line;
  auto field = [](const std::string& s, std::size_t& pos) {
    const std::size_t tab = s.find('\t', pos);
    std::string f = s.substr(pos, tab == std::string::npos ? std::string::npos : tab - pos);
    pos = tab == std::string::npos ? s.size() : tab + 1;
    return f;
  };
  while (std::getline(in, line)) {
    std::size_t pos = 0;
    const std::string tag = field(line, pos);
    if (tag == "capture") {
      SourceCapture c;
      c.key = field(line, pos);
      c.path = field(line, pos);
      c.records = std::stoull(field(line, pos));
      caps.push_back(std::move(c));
    } else if (tag == "ref" && !caps.empty()) {
      caps.back().reference.push_back(line.substr(pos));
    } else if (tag == "truth" && !caps.empty()) {
      const std::string src = field(line, pos);
      caps.back().truth[src] = field(line, pos);
    } else {
      throw std::runtime_error("bad manifest line: " + line);
    }
  }
  return caps;
}

// ---- rows -------------------------------------------------------------------

std::string normalize_row(const std::string& line,
                          std::initializer_list<const char*> drop) {
  Json doc = Json::parse(line);
  for (const char* key : drop) doc.remove(key);
  return doc.dump();
}

namespace {

// Value of the first top-level `"name":"value"` string member. Rows are
// compact dumps whose header members (type, file) precede any nested
// object, and the generated file names need no escaping.
std::string string_member(const std::string& line, const std::string& name) {
  const std::string needle = "\"" + name + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string::npos ? std::string{} : line.substr(begin, end - begin);
}

}  // namespace

std::string row_type(const std::string& line) { return string_member(line, "type"); }
std::string row_file(const std::string& line) { return string_member(line, "file"); }

void fill_verdict(report::BatchFlowRecord& row, core::TraceAnalysis& analysis) {
  row.trustworthy = analysis.calibration.trustworthy();
  const auto& best = analysis.match.best();
  row.best_name = best.profile.name;
  row.best_fit = core::to_string(best.fit);
  row.best_penalty = best.penalty;
  row.conformance = std::move(analysis.conformance);
  row.calibration = analysis.calibration;
}

std::size_t tie_band(const core::MatchResult& match) {
  std::size_t n = 0;
  for (const auto& f : match.fits)
    if (match.identifies(f.profile.name)) ++n;
  return n;
}

// ---- statistics ---------------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail_quantile(const std::vector<double>& v, double q, double* used) {
  const double n = static_cast<double>(v.size());
  double take = q;
  if (n * (1.0 - q) < 10.0) take = std::max(std::min(q, 0.5), 1.0 - 10.0 / n);
  if (used) *used = take;
  return quantile(v, take);
}

namespace {
volatile std::size_t probe_sink;  ///< keeps the probe's work observable
}  // namespace

double host_probe_ms() {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> v(32768);
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (auto& k : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<std::uint32_t>(x);
    }
    return v;
  }();
  const double t0 = thread_cpu_ms();
  // About a third of the time: rows formatted into a hash table of strings.
  std::unordered_map<std::uint32_t, std::string> table;
  char buf[64];
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::uint32_t k = keys[i];
    const int n = std::snprintf(buf, sizeof buf, "{\"key\":%u,\"v\":%.6g}", k % 50000u,
                                static_cast<double>(k % 1000u) / 7.0);
    table[k % 50000u].append(buf, static_cast<std::size_t>(n));
  }
  // The rest: a branchy sort.
  std::vector<std::uint32_t> v = keys;
  std::sort(v.begin(), v.end());
  probe_sink = table.size() + v[v.size() / 2];
  return thread_cpu_ms() - t0;
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double probe_to_reference(int n) {
  std::vector<double> p;
  for (int i = 0; i < n; ++i) p.push_back(host_probe_ms());
  return to_reference(median(std::move(p)));
}

CpuTicks read_cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
                steal = 0;
  in >> label >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  if (!in || label != "cpu") return {};
  return {user + nice + system + irq + softirq, steal};
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const double busy = static_cast<double>(b.busy - a.busy);
  const double steal = static_cast<double>(b.steal - a.steal);
  return busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
}

double peak_rss_mb() {
  return static_cast<double>(tcpanaly::util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench

// Shared declarations of the pipeline benchmark: command-line arguments,
// the workload catalogue, the result document, the input manifest and the
// row helpers used by both the generator and the measuring runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "core/flow_demux.hpp"
#include "daemon/capture_job.hpp"
#include "report/report.hpp"
#include "tcp/profile.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using tcpanaly::report::Json;

struct Args {
  std::string command;  ///< "gen" or "run"
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< small inputs, for the benchmark's own smoke test
  fs::path dir;        ///< work directory holding the generated inputs
};

/// One reported metric. `samples` is printed in the human-readable table;
/// the result document carries only value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What one measuring run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false, if it is

  void add(std::string name, double value, std::string unit, std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void problem(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
};

// ---- workload catalogue -------------------------------------------------

/// busy_link / long_flows: one multi-connection capture analyzed in a
/// closed loop. daemon_mixed has its own parameters (daemon_mixed.cpp).
struct CaptureWorkload {
  std::string capture_name;       ///< file name == row key
  std::uint32_t snaplen = 65535;
  bool pcapng = false;
  std::size_t flows = 0;
  std::uint32_t transfer_bytes = 0;
  /// Empty => the default registry; else the --candidates triage set.
  std::vector<std::string> candidates;
};

CaptureWorkload capture_workload(const std::string& name, bool smoke);


/// Resolve a candidate list the way `tcpanaly --candidates` does: an empty
/// list is the whole registry. Throws when a name is unknown.
std::vector<tcpanaly::tcp::TcpProfile> resolve_candidates(
    const std::vector<std::string>& names);

/// The per-capture options every workload uses: the --batch/daemon
/// settings (serial per-flow matching, the job owns the parallelism).
tcpanaly::daemon::CaptureJobOptions job_options(
    std::vector<tcpanaly::tcp::TcpProfile> candidates,
    tcpanaly::util::MemTracker* stream_mem);

// ---- inputs on disk -----------------------------------------------------

/// A generated input: the capture file, the rows a correct analysis
/// renders for it (normalized, see normalize_row), and the generating
/// profile of each flow keyed by the flow's first source endpoint.
struct SourceCapture {
  std::string key;  ///< row key it was analyzed under when referenced
  fs::path path;
  std::uint64_t records = 0;
  std::vector<std::string> reference;            ///< normalized rows, trace row last
  std::map<std::string, std::string> truth;      ///< src endpoint -> profile
};

/// Manifest I/O: a small line-oriented text file in the work directory.
void write_manifest(const fs::path& file, const std::vector<SourceCapture>& caps);
std::vector<SourceCapture> read_manifest(const fs::path& file);

/// A row with the named top-level members removed, compactly re-dumped:
/// rows compare with what legitimately differs between runs taken out
/// (the wall-clock `timings`; the `file`/`key` a capture was submitted
/// under; for a flow checked against the same flow analyzed in isolation,
/// the demux-assigned `serial` and `finalized_by`).
std::string normalize_row(const std::string& line,
                          std::initializer_list<const char*> drop);

/// Field extraction without a full parse, for hot polling loops.
std::string row_type(const std::string& line);
std::string row_file(const std::string& line);

/// The per-flow verdict fields of a flow row, filled exactly as
/// daemon::run_capture_job fills them (the conformance vector is moved).
void fill_verdict(tcpanaly::report::BatchFlowRecord& row,
                  tcpanaly::core::TraceAnalysis& analysis);

/// Close-fit tie band of a match (what MatchResult::identifies accepts).
std::size_t tie_band(const tcpanaly::core::MatchResult& match);

// ---- statistics -----------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b);
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1].
double quantile(std::vector<double> v, double q);
/// The quantile nearest to `q` (from below, but not below the median) that
/// still has at least ten samples beyond it; `used` receives the quantile
/// actually taken.
double tail_quantile(const std::vector<double>& v, double q, double* used);

/// Process peak resident set (VmHWM), in MiB.
double peak_rss_mb();

// ---- host speed -----------------------------------------------------------

/// End-to-end times are reported at a reference host speed. A shared host
/// runs the same code up to ~1.7x slower for seconds to minutes at a time
/// (a busy SMT sibling, other tenants' cache and memory traffic) and, when
/// it is overcommitted, takes the vCPUs away for part of the time (steal),
/// which would swamp any change worth measuring. Steal is kept out by
/// timing in thread CPU time where one thread does the work, and measured
/// and taken out where several do (daemon_mixed). Speed is measured by a
/// fixed probe -- small-object hashing, number formatting and a sort, the
/// pipeline's kind of work but none of the repository's code -- timed next
/// to the measurements: a time t measured while the probe takes p ms is
/// reported as t * kReferenceProbeMs / p, what it would be on a host where
/// the probe takes kReferenceProbeMs (about what it takes on a 4-vCPU Xeon
/// VM).
constexpr double kReferenceProbeMs = 5.0;

/// CPU time the calling thread has used, in ms. It excludes steal.
double thread_cpu_ms();

/// One run of the probe: the calling thread's CPU time for it, in ms.
double host_probe_ms();

/// The factor that turns times measured while the probe takes `probe_ms`
/// into reference times.
inline double to_reference(double probe_ms) { return kReferenceProbeMs / probe_ms; }

/// to_reference of the median of `n` probes run back to back.
double probe_to_reference(int n);

/// The machine's summed CPU times from /proc/stat, in ticks: time spent
/// running (user, nice, system, irq, softirq) and time stolen by the host.
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();
/// The share of the vCPUs' non-idle time between `a` and `b` that the
/// host took away (0 when it cannot be read).
double steal_share(const CpuTicks& a, const CpuTicks& b);

// ---- workloads ------------------------------------------------------------

void generate(const Args& args);
Outcome run_capture_workload(const Args& args);
Outcome run_daemon_mixed(const Args& args);

}  // namespace perfbench

// daemon_mixed: tcpanalyd in-process under a standing spool backlog of
// single-connection captures (kNormal) plus an open-loop schedule of
// interactive ANALYZE requests for multi-flow captures (kHigh).
//
// Latency of an interactive request runs from the moment it was due until
// its trace row can be read in the daemon's output file, which a poller
// thread tails across rotations.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>

#include "daemon/daemon.hpp"
#include "daemon/server.hpp"
#include "pipeline.hpp"

namespace perfbench {

namespace daemon = tcpanaly::daemon;

namespace {

constexpr int kSetupRepeats = 101;
constexpr double kPeriodMs = 40.0;            ///< interactive schedule
/// A request is late when sent more than this share of the period after
/// it was due; a run with more than kMaxLatePerMille late requests is
/// invalid (a single stall of a shared host does not void a run).
constexpr double kLatePeriodShare = 0.5;
constexpr std::uint64_t kMaxLatePerMille = 10;
/// Interactive requests still without a row at the end of the schedule
/// beyond which the queue counts as growing: max(4, 5 % of those sent).
constexpr std::size_t kMaxOutstanding = 4;
constexpr std::size_t kMaxOutstandingPerMille = 50;
constexpr std::size_t kBacklogDepth = 64;     ///< spool files queued or running
constexpr std::size_t kProbeEvery = 5;        ///< requests per host probe
constexpr std::uint64_t kRotateBytes = 4ull << 20;
constexpr std::uint64_t kGateMb = 1;
constexpr double kMiB = 1024.0 * 1024.0;

unsigned workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max(1u, hw - 1);
}

daemon::DaemonOptions daemon_options(const fs::path& dir) {
  daemon::DaemonOptions o;
  o.spool_dirs = {dir / "spool"};
  o.socket_path = (dir / "ctl.sock").string();
  o.out_path = (dir / "out.ndjson").string();
  o.rotate_bytes = kRotateBytes;
  o.jobs = static_cast<int>(workers());
  o.max_rss_mb = kGateMb;
  o.stats_interval_s = 1.0;
  return o;
}

/// A daemon running on its own thread; stopped and joined on destruction.
class RunningDaemon {
 public:
  explicit RunningDaemon(daemon::DaemonOptions opts)
      : socket_(opts.socket_path), daemon_(std::move(opts)),
        thread_([this] { daemon_.run(); }) {}
  ~RunningDaemon() {
    daemon_.request_stop();
    thread_.join();
  }
  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;

  /// Poll STATUS until the control socket answers.
  void wait_ready() {
    const auto give_up = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      try {
        if (daemon::request(socket_, "STATUS", 1000).rfind('{', 0) == 0) return;
      } catch (const std::exception&) {
      }
      if (Clock::now() > give_up) throw std::runtime_error("daemon never answered STATUS");
      std::this_thread::yield();  // no sleep: its granularity would dominate set-up time
    }
  }

  daemon::Daemon& get() { return daemon_; }

 private:
  std::string socket_;
  daemon::Daemon daemon_;
  std::thread thread_;
};

/// Backlog file names carry their pool entry: "<slug>_<i>r<seq>_<vantage>"
/// keeps the slug prefix and vantage suffix the daemon reads truth and role
/// from; the pool key is the same name without "r<seq>".
std::string backlog_name(const std::string& pool_key, std::uint64_t seq) {
  const std::size_t cut = pool_key.size() - std::string("_snd.pcap").size();
  return pool_key.substr(0, cut) + "r" + std::to_string(seq) + pool_key.substr(cut);
}

std::string pool_key_of(const std::string& name) {
  const std::size_t cut = name.size() - std::string("_snd.pcap").size();
  const std::size_t r = name.rfind('r', cut);
  return name.substr(0, r) + name.substr(cut);
}

bool is_interactive(const std::string& file) {
  return file.find("/interactive_req/") != std::string::npos;
}

/// Index of an interactive request from its path ".../interactive_req/q<i>.pcap".
std::size_t request_index(const std::string& file) {
  const std::size_t at = file.rfind("/q");
  return static_cast<std::size_t>(std::stoull(file.substr(at + 2)));
}

/// Tails the daemon's NDJSON output across rotations and reports every
/// trace row, on the poller's thread, the moment it becomes readable.
class OutputPoller {
 public:
  using OnTraceRow = std::function<void(const std::string& file, Clock::time_point at)>;

  OutputPoller(fs::path path, OnTraceRow on_row)
      : path_(std::move(path)), on_row_(std::move(on_row)), thread_([this] { loop(); }) {}
  ~OutputPoller() { stop(); }
  OutputPoller(const OutputPoller&) = delete;
  OutputPoller& operator=(const OutputPoller&) = delete;

  /// Stop after one last pass over everything written so far.
  void stop() {
    if (!thread_.joinable()) return;
    stop_ = true;
    thread_.join();
  }

  std::size_t interactive_seen() const { return interactive_seen_.load(); }
  std::size_t backlog_seen() const { return backlog_seen_.load(); }

 private:
  void consume(const char* data, std::size_t n) {
    partial_.append(data, n);
    std::size_t begin = 0;
    for (std::size_t nl; (nl = partial_.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      const std::string line = partial_.substr(begin, nl - begin);
      if (row_type(line) != "trace") continue;
      const std::string file = row_file(line);
      on_row_(file, Clock::now());
      ++(is_interactive(file) ? interactive_seen_ : backlog_seen_);
    }
    partial_.erase(0, begin);
  }

  /// Read to EOF; returns whether anything was read.
  bool drain(int fd) {
    char buf[1 << 16];
    bool any = false;
    for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;) {
      consume(buf, static_cast<std::size_t>(n));
      any = true;
    }
    return any;
  }

  void loop() {
    int fd = -1;
    ino_t ino = 0;
    for (;;) {
      const bool stopping = stop_.load();
      if (fd < 0) {
        fd = ::open(path_.c_str(), O_RDONLY);
        struct stat st {};
        if (fd >= 0 && ::fstat(fd, &st) == 0) ino = st.st_ino;
      }
      bool progressed = false;
      if (fd >= 0) {
        progressed = drain(fd);
        // Rotation renames the file away and opens a fresh one: once the
        // path names another inode, the old segment is complete.
        struct stat st {};
        if (::stat(path_.c_str(), &st) == 0 && st.st_ino != ino) {
          drain(fd);
          ::close(fd);
          fd = -1;
          progressed = true;
        }
      }
      if (stopping && !progressed) break;
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (fd >= 0) ::close(fd);
  }

  fs::path path_;
  OnTraceRow on_row_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> interactive_seen_{0};
  std::atomic<std::size_t> backlog_seen_{0};
  std::string partial_;  // poller thread only
  std::thread thread_;   // last: starts after the members it uses
};

/// Keeps kBacklogDepth backlog captures queued or running: a new spool
/// file (a hard link to a pool capture, round-robin) for each one the
/// daemon finishes.
class BacklogFeeder {
 public:
  BacklogFeeder(std::vector<const SourceCapture*> pool, fs::path spool,
                const OutputPoller& poller)
      : pool_(std::move(pool)), spool_(std::move(spool)), poller_(poller) {
    top_up();
    thread_ = std::thread([this] {
      while (!stop_.load() && top_up())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  ~BacklogFeeder() { stop(); }
  BacklogFeeder(const BacklogFeeder&) = delete;
  BacklogFeeder& operator=(const BacklogFeeder&) = delete;

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  /// Why queueing stopped early, if it did.
  const std::string& error() const { return error_; }

 private:
  bool top_up() {
    while (created_ < poller_.backlog_seen() + kBacklogDepth) {
      const SourceCapture& c = *pool_[created_ % pool_.size()];
      const fs::path link = spool_ / backlog_name(c.key, created_);
      std::error_code ec;
      fs::create_hard_link(c.path, link, ec);
      if (ec) fs::copy_file(c.path, link, ec);
      if (ec) {
        error_ = "cannot queue " + link.string() + ": " + ec.message();
        return false;
      }
      ++created_;
    }
    return true;
  }

  std::vector<const SourceCapture*> pool_;
  fs::path spool_;
  const OutputPoller& poller_;
  std::uint64_t created_ = 0;
  std::string error_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

struct PhaseResult {
  std::vector<double> latency_ms;  ///< per interactive request with a row
  std::vector<double> job_ms;      ///< its capture job's wall (trace row timings)
  std::vector<double> wait_ms;     ///< latency minus job time
  double lag_ms_max = 0.0;
  /// Records of the backlog captures finished in each window of (at most)
  /// one second, per second.
  std::vector<double> backlog_rates;
  double peak_rss_mb = 0.0;  ///< at the end of the phase, before the checks
  /// The host probe, run by the generator between requests.
  std::vector<double> probe_ms;
  double steal_share = 0.0;  ///< over the schedule
  std::uint64_t sent = 0;
  std::uint64_t interactive_rows = 0;
  CheckTally tally;  ///< one capture per trace row, plus refusals and missing rows
  tcpanaly::report::DaemonStatsRecord stats;
  std::vector<std::string> invalid;
};

PhaseResult run_phase(const fs::path& dir, const std::vector<SourceCapture>& caps,
                      double seconds) {
  std::vector<const SourceCapture*> pool, mixes;
  std::unordered_map<std::string, const SourceCapture*> pool_by_key;
  for (const auto& c : caps) {
    if (c.path.parent_path().filename() == "pool") {
      pool.push_back(&c);
      pool_by_key[c.key] = &c;
    } else {
      mixes.push_back(&c);
    }
  }

  const fs::path phase = dir / "daemon";
  fs::remove_all(phase);
  fs::create_directories(phase / "spool");
  fs::create_directories(phase / "interactive_req");
  // One hard link per request, so each trace row names its request.
  const auto period = std::chrono::duration<double, std::milli>(kPeriodMs);
  const auto n_req = static_cast<std::size_t>(std::ceil(seconds * 1000.0 / kPeriodMs));
  std::vector<std::string> req_path(n_req);
  for (std::size_t i = 0; i < n_req; ++i) {
    req_path[i] =
        (phase / "interactive_req" / ("q" + std::to_string(i) + ".pcap")).string();
    fs::create_hard_link(mixes[i % mixes.size()]->path, req_path[i]);
  }

  PhaseResult pr;
  const daemon::DaemonOptions dopts = daemon_options(phase);
  std::vector<Clock::time_point> due(n_req);
  std::vector<bool> refused(n_req, false);
  // Filled on the poller's thread, read here after it has stopped. Rows
  // are placed in windows only once t0 is published.
  std::vector<Clock::time_point> seen_at(n_req, Clock::time_point::max());
  const double window_s = std::min(1.0, seconds);
  const auto windows = static_cast<std::size_t>(seconds / window_s);
  pr.backlog_rates.assign(std::max<std::size_t>(1, windows), 0.0);
  std::atomic<Clock::rep> t0_ticks{Clock::time_point::max().time_since_epoch().count()};
  auto on_row = [&](const std::string& file, Clock::time_point at) {
    if (is_interactive(file)) {
      seen_at[request_index(file)] = at;
      return;
    }
    const Clock::time_point t0{Clock::duration{t0_ticks.load()}};
    auto it = pool_by_key.find(pool_key_of(file));
    if (at < t0 || it == pool_by_key.end()) return;
    const auto w = static_cast<std::size_t>(ms_between(t0, at) / 1000.0 / window_s);
    if (w < pr.backlog_rates.size())
      pr.backlog_rates[w] += static_cast<double>(it->second->records) / window_s;
  };
  {
    OutputPoller poller(dopts.out_path, on_row);
    BacklogFeeder feeder(pool, phase / "spool", poller);
    RunningDaemon d(dopts);
    d.wait_ready();

    // Open loop: request i is due at t0 + i * period, whatever happened
    // to the ones before it; one socket connection at a time.
    const CpuTicks cpu0 = read_cpu_ticks();
    const Clock::time_point t0 = Clock::now();
    t0_ticks = t0.time_since_epoch().count();
    std::uint64_t n_refused = 0, n_late = 0;
    for (std::size_t i = 0; i < n_req; ++i) {
      due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                        period * static_cast<double>(i));
      std::this_thread::sleep_until(due[i]);
      const double lag_ms = ms_between(due[i], Clock::now());
      pr.lag_ms_max = std::max(pr.lag_ms_max, lag_ms);
      if (lag_ms > kLatePeriodShare * kPeriodMs) ++n_late;
      std::string reply;
      try {
        reply = daemon::request(dopts.socket_path, "ANALYZE " + req_path[i], 5000);
      } catch (const std::exception& e) {
        reply = std::string("ERR ") + e.what();
      }
      ++pr.sent;
      if (i % kProbeEvery == 0) pr.probe_ms.push_back(host_probe_ms());
      if (reply.rfind("OK", 0) != 0) {
        refused[i] = true;
        ++n_refused;
        pr.tally.fail("ANALYZE refused: " + reply);
      }
    }
    std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds)));
    pr.steal_share = steal_share(cpu0, read_cpu_ticks());
    const std::size_t outstanding = pr.sent - n_refused - poller.interactive_seen();
    if (outstanding > std::max(kMaxOutstanding, pr.sent * kMaxOutstandingPerMille / 1000))
      pr.invalid.push_back(std::to_string(outstanding) +
                           " interactive requests still queued at the end");
    if (n_late * 1000 > pr.sent * kMaxLatePerMille)
      pr.invalid.push_back(std::to_string(n_late) + " of " + std::to_string(pr.sent) +
                           " requests sent over half a period late");
    const auto grace = Clock::now() + std::chrono::seconds(5);
    while (poller.interactive_seen() + n_refused < pr.sent && Clock::now() < grace)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    feeder.stop();
    if (!feeder.error().empty()) pr.invalid.push_back(feeder.error());
    pr.stats = d.get().snapshot();
    // Rows written from here on (the daemon finishing the captures it had
    // claimed as it stops) fall outside the measured window; the output
    // check below reads them from the files.
    poller.stop();
  }
  pr.peak_rss_mb = peak_rss_mb();
  pr.latency_ms.assign(n_req, -1.0);
  for (std::size_t i = 0; i < n_req; ++i)
    if (seen_at[i] != Clock::time_point::max())
      pr.latency_ms[i] = ms_between(due[i], seen_at[i]);

  // Output check: every row the daemon wrote, against the serial
  // run_capture_job rows of the same file. Rows of concurrent captures
  // interleave, so they are grouped by file.
  std::vector<fs::path> segments;
  for (std::uint64_t i = 1; fs::exists(dopts.out_path + "." + std::to_string(i)); ++i)
    segments.push_back(dopts.out_path + "." + std::to_string(i));
  segments.push_back(dopts.out_path);
  const RowCheck check = serial_job_check();
  std::unordered_map<std::string, std::vector<std::string>> pending;
  std::unordered_map<std::string, int> trace_rows;
  std::vector<double> job_ms(n_req, -1.0);
  for (const auto& seg : segments) {
    std::ifstream in(seg);
    std::string line;
    while (std::getline(in, line)) {
      const std::string type = row_type(line);
      if (type != "flow" && type != "trace") continue;
      const std::string file = row_file(line);
      if (type == "flow") {
        pending[file].push_back(std::move(line));
        continue;
      }
      ++pr.tally.captures;
      if (++trace_rows[file] > 1) {
        pr.tally.fail("capture reported twice: " + file);
        continue;
      }
      const SourceCapture* src = nullptr;
      if (is_interactive(file)) {
        ++pr.interactive_rows;
        const std::size_t i = request_index(file);
        src = mixes[i % mixes.size()];
        job_ms[i] = static_cast<double>(
                        Json::parse(line).find("timings")->find("total_us")->as_int()) /
                    1000.0;
      } else {
        auto it = pool_by_key.find(pool_key_of(file));
        if (it != pool_by_key.end()) src = it->second;
      }
      const std::string why =
          src ? check(*src, pending[file], line) : "unknown capture " + file;
      if (!why.empty()) pr.tally.fail(why);
      pending.erase(file);
    }
  }
  for (std::size_t i = 0; i < n_req; ++i) {
    if (refused[i]) continue;  // already counted as failed
    if (pr.latency_ms[i] < 0.0 || job_ms[i] < 0.0) {
      pr.tally.fail("no trace row for request " + req_path[i]);
      continue;
    }
    pr.job_ms.push_back(job_ms[i]);
    pr.wait_ms.push_back(pr.latency_ms[i] - job_ms[i]);
  }
  std::erase_if(pr.latency_ms, [](double v) { return v < 0.0; });
  return pr;
}

}  // namespace

Outcome run_daemon_mixed(const Args& args) {
  const std::vector<SourceCapture> caps = read_manifest(args.dir / "manifest.txt");
  Outcome out;

  // Set-up: Daemon construction until the control socket answers STATUS.
  std::vector<double> setup_s;
  double setup_ref = 1.0;
  if (!args.trace) {
    setup_ref = probe_to_reference(3);
    for (int r = 0; r < kSetupRepeats; ++r) {
      const fs::path d = args.dir / ("setup" + std::to_string(r));
      fs::remove_all(d);
      fs::create_directories(d / "spool");
      const auto t0 = Clock::now();
      RunningDaemon daemon(daemon_options(d));
      daemon.wait_ready();
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
    // Not scaled for steal: /proc/stat counts in 10 ms ticks, too coarse
    // for a set-up phase that is mostly waiting.
    setup_ref = (setup_ref + probe_to_reference(3)) / 2.0;
  }

  PhaseResult p = run_phase(args.dir, caps, args.trace ? args.seconds / 2.0 : args.seconds);
  for (const auto& why : p.invalid) out.problem("invalid run: " + why);

  if (!args.trace) {
    // At reference speed, with the run's median probe: the workers run on
    // other cores than the probe, so only the host's state over the run
    // carries over to them, not its moment-to-moment changes. The threads
    // had the vCPUs for only (1 - steal share) of their wall time, so the
    // times are scaled by that share too.
    const double ref = to_reference(median(p.probe_ms)) * (1.0 - p.steal_share);
    double p90_q = 0.9;
    out.add("setup_s", median(setup_s) * setup_ref, "s", setup_s.size());
    out.add("records_per_s", median(p.backlog_rates) / ref, "1/s", p.backlog_rates.size());
    out.add("interactive_ms_p50", median(p.latency_ms) * ref, "ms", p.latency_ms.size());
    out.add("interactive_ms_p90", tail_quantile(p.latency_ms, 0.9, &p90_q) * ref, "ms",
            p.latency_ms.size());
    out.add("peak_rss_mb", p.peak_rss_mb, "MiB");
    out.add("peak_state_mb", static_cast<double>(p.stats.peak_stream_bytes) / kMiB, "MiB");
    std::size_t flows = 0;
    const double top1 = top1_share(caps, &flows);
    out.add("top1_share", top1, "share", flows);
    std::printf("note: host probe %.3f ms (median; reference %.1f ms), steal share %.4f; "
                "as measured: records_per_s %.0f, interactive_ms_p50 %.3f\n",
                median(p.probe_ms), kReferenceProbeMs, p.steal_share,
                median(p.backlog_rates), median(p.latency_ms));
    if (p90_q < 0.9)
      std::printf("note: %zu requests, so interactive_ms_p90 is the p%.0f\n",
                  p.latency_ms.size(), p90_q * 100.0);
  } else {
    measure_layers(caps, job_options({}, nullptr), args.dir, kRotateBytes,
                   args.seconds / 4.0, serial_job_check(),
                   args.dir.parent_path() / ("spans-" + args.workload + ".tsv"), out,
                   p.tally);
    out.add("daemon.capture_job_ms_p50", median(p.job_ms), "ms", p.job_ms.size());
    out.add("daemon.queue_wait_ms_p90", quantile(p.wait_ms, 0.9), "ms", p.wait_ms.size());
    out.add("gen.lag_ms_max", p.lag_ms_max, "ms", p.sent);
    out.add("writer.rotations", static_cast<double>(p.stats.output_rotations), "count");
    out.add("scheduler.tasks_stolen", static_cast<double>(p.stats.tasks_stolen), "count");
    out.add("gate.deferred", static_cast<double>(p.stats.mem_gate.deferred), "count");
    out.add("gate.oversized", static_cast<double>(p.stats.mem_gate.oversized), "count");
  }
  // Operations: interactive requests sent, plus every other capture run.
  out.attempted = p.sent + p.tally.captures - p.interactive_rows;
  out.failed = p.tally.failed;
  for (const auto& why : p.tally.problems) out.problem(why);
  return out;
}

}  // namespace perfbench

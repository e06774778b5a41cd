// Input generation: every capture a workload analyzes is simulated from
// the seed and written to the work directory, together with the rows a
// correct analysis must render for it. The measuring run sees only these
// files.
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "core/stream_analysis.hpp"
#include "corpus/corpus.hpp"
#include "corpus/naming.hpp"
#include "netsim/mix.hpp"
#include "tcp/profiles.hpp"
#include "trace/mmap_source.hpp"
#include "trace/pcap_io.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace core = tcpanaly::core;
namespace corpus = tcpanaly::corpus;
namespace report = tcpanaly::report;
namespace sim = tcpanaly::sim;
namespace tcp = tcpanaly::tcp;
namespace trace = tcpanaly::trace;
namespace util = tcpanaly::util;

namespace {

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic per-item hash of (seed, stream, index).
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return mix64(mix64(mix64(seed) ^ stream) ^ i);
}

/// One simulated connection: its profile and corpus-style path conditions.
struct FlowSpec {
  tcp::TcpProfile profile;
  corpus::ScenarioParams params;
};

/// Path conditions drawn from the corpus sweep's grid (loss 0/1/3%, one-way
/// delay 20/60/200 ms, 1 MB/s or 125 kB/s).
corpus::ScenarioParams grid_params(std::uint64_t h, std::uint32_t transfer_bytes) {
  static constexpr double kLoss[] = {0.0, 0.01, 0.03};
  static constexpr std::int64_t kOwdMs[] = {20, 60, 200};
  static constexpr double kRate[] = {1'000'000.0, 125'000.0};
  corpus::ScenarioParams p;
  p.loss_prob = kLoss[(h >> 8) % 3];
  p.one_way_delay = util::Duration::millis(kOwdMs[(h >> 16) % 3]);
  p.rate_bytes_per_sec = kRate[(h >> 24) % 2];
  p.transfer_bytes = transfer_bytes;
  p.seed = (h >> 32) | 1;
  return p;
}

std::vector<tcp::SessionResult> simulate(const std::vector<FlowSpec>& specs) {
  return util::parallel_map(specs, [](const FlowSpec& s) {
    return tcp::run_session(corpus::make_session(s.profile, s.params));
  });
}

/// Interleave the sessions' sender-side traces into one capture, flow i on
/// sim::flow_endpoints(i), starting at offsets[i].
struct Mix {
  trace::Trace capture;
  std::vector<trace::Trace> isolated;
};

Mix interleave(const std::vector<tcp::SessionResult>& sessions,
               const std::vector<util::Duration>& offsets) {
  std::vector<sim::FlowSlice> slices(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const sim::FlowEndpoints eps = sim::flow_endpoints(static_cast<std::uint32_t>(i));
    slices[i] = {&sessions[i].sender_trace, eps.local, eps.remote, offsets[i]};
  }
  Mix m;
  m.capture = sim::interleave_flows(slices);
  for (const auto& s : slices) m.isolated.push_back(sim::interleave_flows({s}));
  return m;
}

void write_capture(const fs::path& path, const trace::Trace& t, std::uint32_t snaplen,
                   bool pcapng) {
  if (pcapng) {
    trace::PcapngWriteOptions o;
    o.snaplen = snaplen;
    trace::write_pcapng_file(path.string(), t, o);
  } else {
    trace::PcapWriteOptions o;
    o.snaplen = snaplen;
    trace::write_pcap_file(path.string(), t, o);
  }
}

/// The reference row for one flow: the flow written to a capture of its
/// own (same format and snaplen), analyzed with analyze_capture_stream --
/// the single-connection front end the demux must reproduce exactly.
std::string isolated_flow_row(const fs::path& scratch, const trace::Trace& flow,
                              const CaptureWorkload& w,
                              const std::vector<tcp::TcpProfile>& candidates,
                              const core::AnalyzeOptions& aopts) {
  write_capture(scratch, flow, w.snaplen, w.pcapng);
  auto source = trace::open_capture_source(scratch.string());
  core::StreamedTraceAnalysis sa =
      core::analyze_capture_stream(*source, true, candidates, aopts);
  fs::remove(scratch);

  const trace::Trace& t = *sa.trace;
  report::BatchFlowRecord row;
  row.file = w.capture_name;
  row.src = t[0].src.to_string();
  row.dst = t[0].dst.to_string();
  row.cls = core::to_string(core::FlowClass::kAnalyzable);
  row.records = sa.records_streamed;
  util::TimePoint last = t[0].timestamp;
  for (const auto& rec : t.records()) {
    row.payload_bytes += rec.tcp.payload_len;
    if (rec.timestamp > last) last = rec.timestamp;
  }
  row.duration_s = (last - t[0].timestamp).to_seconds();
  fill_verdict(row, sa.analysis);
  return normalize_row(row.to_json().dump(), {"serial", "finalized_by"});
}

void generate_capture_workload(const Args& args) {
  const CaptureWorkload w = capture_workload(args.workload, args.smoke);
  const auto registry = tcp::all_profiles();
  const auto candidates = resolve_candidates(w.candidates);

  std::vector<FlowSpec> specs(w.flows);
  std::vector<util::Duration> offsets(w.flows);
  util::Duration start = util::Duration::zero();
  for (std::size_t i = 0; i < w.flows; ++i) {
    const std::uint64_t h = draw(args.seed, 1, i);
    if (w.candidates.empty()) {
      // busy_link: every registry profile, short transfers starting a few
      // milliseconds apart, so hundreds of connections are live at once.
      specs[i] = {registry[h % registry.size()], grid_params(h, w.transfer_bytes)};
      start = start + util::Duration::millis(1 + static_cast<std::int64_t>((h >> 40) % 8));
    } else {
      // long_flows: the triaged profile on one lossy path; only the loss
      // pattern differs, so the transfers overlap for most of their life.
      specs[i].profile = candidates.front();
      specs[i].params.loss_prob = 0.02;
      specs[i].params.one_way_delay = util::Duration::millis(30);
      specs[i].params.transfer_bytes = w.transfer_bytes;
      specs[i].params.seed = (h >> 32) | 1;
      start = util::Duration::millis(250 * static_cast<std::int64_t>(i));
    }
    offsets[i] = start;
  }
  const Mix mix = interleave(simulate(specs), offsets);

  SourceCapture cap;
  cap.key = w.capture_name;
  cap.path = args.dir / w.capture_name;
  cap.records = mix.capture.size();
  write_capture(cap.path, mix.capture, w.snaplen, w.pcapng);

  core::AnalyzeOptions aopts = job_options({}, nullptr).analyze;
  std::vector<std::size_t> idx(w.flows);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  cap.reference = util::parallel_map(idx, [&](std::size_t i) {
    const fs::path scratch =
        args.dir / ("isolated_" + std::to_string(i) + (w.pcapng ? ".pcapng" : ".pcap"));
    return isolated_flow_row(scratch, mix.isolated[i], w, candidates, aopts);
  });
  for (std::size_t i = 0; i < w.flows; ++i)
    cap.truth[mix.isolated[i][0].src.to_string()] = specs[i].profile.name;
  write_manifest(args.dir / "manifest.txt", {cap});
}

// ---- daemon_mixed ---------------------------------------------------------

/// daemon_mixed's inputs: a pool of single-connection corpus captures the
/// backlog cycles through, and the multi-flow captures sent interactively.
/// Enough flows that top1_share varies little from seed to seed.
struct DaemonMixedShape {
  std::size_t sessions_per_profile = 24;  ///< each gives a _snd and a _rcv file
  std::uint32_t backlog_transfer_bytes = 100 * 1024;
  std::size_t interactive_captures = 16;
  std::size_t flows_per_interactive = 32;
  std::uint32_t interactive_transfer_bytes = 16 * 1024;
};

void generate_daemon_mixed(const Args& args) {
  DaemonMixedShape shape;
  if (args.smoke) {
    shape.sessions_per_profile = 1;
    shape.interactive_captures = 2;
    shape.flows_per_interactive = 4;
  }
  const auto registry = tcp::all_profiles();
  fs::create_directories(args.dir / "pool");
  fs::create_directories(args.dir / "interactive");

  // Backlog pool: single-connection corpus captures (Table 1 shape), one
  // sender-side and one receiver-side file per session.
  std::vector<FlowSpec> pool_specs;
  for (std::size_t p = 0; p < registry.size(); ++p)
    for (std::size_t k = 0; k < shape.sessions_per_profile; ++k) {
      const std::uint64_t h = draw(args.seed, 2, p * 1000 + k);
      pool_specs.push_back({registry[p], grid_params(h, shape.backlog_transfer_bytes)});
    }
  const auto pool_sessions = simulate(pool_specs);

  std::vector<SourceCapture> caps;
  for (std::size_t i = 0; i < pool_specs.size(); ++i) {
    for (const bool rcv : {false, true}) {
      const trace::Trace& t =
          rcv ? pool_sessions[i].receiver_trace : pool_sessions[i].sender_trace;
      SourceCapture c;
      c.key = corpus::slug(pool_specs[i].profile.name) + "_" + std::to_string(i) +
              (rcv ? "_rcv.pcap" : "_snd.pcap");
      c.path = args.dir / "pool" / c.key;
      c.records = t.size();
      if (!t.empty()) c.truth[t[0].src.to_string()] = pool_specs[i].profile.name;
      trace::write_pcap_file(c.path.string(), t);
      caps.push_back(std::move(c));
    }
  }

  // Interactive captures: small busy-link mixes, header-only.
  for (std::size_t j = 0; j < shape.interactive_captures; ++j) {
    std::vector<FlowSpec> specs(shape.flows_per_interactive);
    std::vector<util::Duration> offsets(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::uint64_t h = draw(args.seed, 3, j * 1000 + i);
      specs[i] = {registry[h % registry.size()],
                  grid_params(h, shape.interactive_transfer_bytes)};
      offsets[i] = util::Duration::millis(5 * static_cast<std::int64_t>(i));
    }
    const Mix mix = interleave(simulate(specs), offsets);
    SourceCapture c;
    c.key = "mix" + std::to_string(j) + ".pcap";
    c.path = args.dir / "interactive" / c.key;
    c.records = mix.capture.size();
    for (std::size_t i = 0; i < specs.size(); ++i)
      c.truth[mix.isolated[i][0].src.to_string()] = specs[i].profile.name;
    trace::PcapWriteOptions o;
    o.snaplen = 68;
    trace::write_pcap_file(c.path.string(), mix.capture, o);
    caps.push_back(std::move(c));
  }

  // Reference rows: each file through a run_capture_job of its own, outside
  // the daemon, with the options the daemon uses (default registry). The
  // jobs are independent, so they run in parallel.
  const auto jopts = job_options({}, nullptr);
  const auto refs = util::parallel_map(caps, [&](const SourceCapture& c) {
    const auto res = tcpanaly::daemon::run_capture_job({c.path, c.key}, jopts);
    std::vector<std::string> rows;
    for (const auto& fr : res.flow_rows)
      rows.push_back(normalize_row(fr.to_json().dump(), {"file", "key"}));
    rows.push_back(normalize_row(res.trace.to_json().dump(), {"file", "timings"}));
    return rows;
  });
  for (std::size_t i = 0; i < caps.size(); ++i) caps[i].reference = refs[i];
  write_manifest(args.dir / "manifest.txt", caps);
}

}  // namespace

void generate(const Args& args) {
  fs::create_directories(args.dir);
  if (args.workload == "daemon_mixed")
    generate_daemon_mixed(args);
  else
    generate_capture_workload(args);
}

}  // namespace perfbench

#include "pipeline.hpp"

#include <array>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <thread>

#include "core/stream_analysis.hpp"
#include "corpus/calibration_rollup.hpp"
#include "corpus/conformance_rollup.hpp"
#include "corpus/naming.hpp"
#include "daemon/ndjson_writer.hpp"
#include "tcp/profiles.hpp"
#include "trace/mmap_source.hpp"
#include "trace/record_source.hpp"

namespace perfbench {

namespace core = tcpanaly::core;
namespace corpus = tcpanaly::corpus;
namespace daemon = tcpanaly::daemon;
namespace report = tcpanaly::report;
namespace tcp = tcpanaly::tcp;
namespace trace = tcpanaly::trace;
namespace util = tcpanaly::util;

namespace {

/// The roll-ups --batch and the daemon fold every flow row into.
struct Rollups {
  corpus::ConformanceRollup conformance;
  corpus::CalibrationRollup calibration;

  void add(const report::BatchFlowRecord& fr) {
    const std::string& impl = !fr.truth.empty() ? fr.truth : fr.best_name;
    if (fr.conformance) conformance.add(impl, *fr.conformance);
    if (fr.calibration) calibration.add(impl, *fr.calibration);
  }
};

struct JobOut {
  std::uint64_t records = 0;
  double capture_ms = 0.0;
};

JobOut production_job(const daemon::CaptureJob& job, const daemon::CaptureJobOptions& o,
                      daemon::NdjsonWriter& writer, Rollups& rollups) {
  const auto t0 = Clock::now();
  const daemon::CaptureJobResult res = daemon::run_capture_job(job, o);
  for (const auto& fr : res.flow_rows) writer.write_row(fr.to_json().dump());
  writer.write_row(res.trace.to_json().dump());
  for (const auto& fr : res.flow_rows) rollups.add(fr);
  return {res.trace.trace.records, ms_between(t0, Clock::now())};
}

/// An analyzable flow kept for the layer re-drive.
struct RetainedFlow {
  std::shared_ptr<const trace::Trace> trace;
  std::string best_name;
  double best_penalty = 0.0;
};

/// Time the layers FlowDemux runs inside add/finish for one flow, through
/// their public entry points, with the options the demux gives them.
void redrive_flow(const RetainedFlow& f, bool local_is_sender,
                  const daemon::CaptureJobOptions& o, Tracer& tracer, LayerAcc& acc) {
  core::AnnotationBuilder::Options bopts;
  bopts.mode = core::AnnotationBuilder::Mode::kFull;
  bopts.local_is_sender = local_is_sender;
  bopts.cap_graces = {o.analyze.match.sender.vantage_grace};
  bopts.conformance = o.analyze.conformance;
  core::BuiltAnnotation built;
  const auto a0 = Clock::now();
  {
    auto s = tracer.span(SpanName::kAnnotate);
    core::AnnotationBuilder builder(std::move(bopts));
    for (const auto& rec : f.trace->records()) builder.add(rec);
    built = builder.finish_full();
  }
  acc.annotate_ns += std::chrono::duration<double, std::nano>(Clock::now() - a0).count();

  core::TraceAnalysis analysis;
  analysis.annotation = built.annotation;
  analysis.conformance = std::move(built.conformance);
  util::StageTimer timer;
  {
    auto s = tracer.span(SpanName::kCalibrateMatch);
    core::calibrate_and_match(analysis, *built.trace, o.candidates, o.analyze, &timer);
  }
  for (const auto& stage : timer.stages()) {
    const double ns = static_cast<double>(stage.wall.count()) * 1000.0;
    if (stage.name == "calibrate" || stage.name == "conformance") acc.calibrate_ns += ns;
    if (stage.name == "match") acc.match_ns += ns;
    if (stage.name == "calibrate")
      for (const auto& [key, value] : stage.counters)
        if (key == "reannotated") ++acc.reannotated_flows;
  }
  acc.candidate_records += static_cast<double>(f.trace->size()) *
                           static_cast<double>(analysis.match.fits.size());
  acc.tie_band_sum += tie_band(analysis.match);
  ++acc.flows_redriven;
  const auto& best = analysis.match.best();
  if (best.profile.name != f.best_name || best.penalty != f.best_penalty)
    ++acc.redrive_mismatches;
}

/// daemon::run_capture_job, step for step, with a span around each public
/// call; then render, write and roll up as production_job does. The rows
/// it writes go through the same output checks.
JobOut traced_job(const daemon::CaptureJob& job, const daemon::CaptureJobOptions& o,
                  daemon::NdjsonWriter& writer, Rollups& rollups, Tracer& tracer,
                  LayerAcc& acc) {
  tracer.set_capture(static_cast<std::uint32_t>(acc.captures++));
  std::vector<RetainedFlow> retained;
  daemon::CaptureJobResult res;
  report::BatchTraceRecord& rec = res.trace;
  const auto c0 = Clock::now();
  {
    auto capture_span = tracer.span(SpanName::kCapture);
    rec.trace.file = job.key;
    const std::string stem = job.path.stem().string();
    rec.trace.truth = corpus::truth_from_filename(stem, tcp::all_profiles());
    rec.trace.receiver_side =
        corpus::receiver_side_from_filename(stem, o.receiver_fallback);
    std::error_code size_ec;
    const std::uint64_t size = fs::file_size(job.path, size_ec);
    const std::uint64_t admitted = size_ec ? 0 : size;
    if (o.gate) o.gate->acquire(admitted);
    report::FlowCounts flows;
    bool load_failed = false;
    try {
      std::unique_ptr<trace::RecordSource> source;
      {
        auto s = tracer.span(SpanName::kOpen);
        source = trace::open_capture_source(job.path.string());
      }
      core::FlowDemuxOptions dopts;
      dopts.local_is_sender = !rec.trace.receiver_side;
      dopts.analyze = o.analyze;
      dopts.candidates = o.candidates;
      dopts.mem = o.stream_mem;
      std::optional<core::FlowResult> single;
      std::uint64_t analyzed = 0;
      core::FlowDemux demux(std::move(dopts), [&](core::FlowResult r) {
        auto s = tracer.span(SpanName::kSink);
        report::BatchFlowRecord fr;
        fr.file = rec.trace.file;
        fr.src = r.first_src.to_string();
        fr.dst = r.first_dst.to_string();
        fr.serial = r.serial;
        fr.cls = core::to_string(r.cls);
        fr.finalized_by = core::to_string(r.finalized_by);
        fr.records = r.records;
        fr.payload_bytes = r.payload_bytes;
        fr.duration_s = (r.last_ts - r.first_ts).to_seconds();
        if (r.cls == core::FlowClass::kAnalyzable) {
          fill_verdict(fr, r.analysis);
          fr.truth = rec.trace.truth;
          retained.push_back({r.trace, fr.best_name, fr.best_penalty});
          rec.conformance_must_failures += fr.conformance->must_failures();
          rec.conformance_should_failures += fr.conformance->should_failures();
          if (!fr.trustworthy) ++rec.untrustworthy_flows;
          for (const auto& d : fr.calibration->detectors) {
            if (d.verdict != core::Verdict::kFail) continue;
            switch (d.detector->severity) {
              case core::CalSeverity::kUntrustworthyOrder: ++rec.cal_order_failures; break;
              case core::CalSeverity::kUntrustworthyClock: ++rec.cal_clock_failures; break;
              case core::CalSeverity::kMissingRecords: ++rec.cal_missing_failures; break;
              case core::CalSeverity::kTampering: ++rec.cal_tampering_failures; break;
            }
          }
          if (++analyzed == 1)
            single = std::move(r);
          else
            single.reset();
        }
        res.flow_rows.push_back(std::move(fr));
      });
      {
        auto demux_scope = rec.timings.stage("demux");
        std::array<trace::PacketRecord, trace::kRecordBatch> batch;
        for (;;) {
          std::size_t got = 0;
          {
            auto s = tracer.span(SpanName::kNextBatch);
            got = source->next_batch(batch);
          }
          if (got == 0) break;
          auto s = tracer.span(SpanName::kAddBatch);
          demux.add_batch(std::span<const trace::PacketRecord>(batch.data(), got));
        }
        rec.trace.skipped_frames = source->skipped_frames();
        {
          auto s = tracer.span(SpanName::kFinish);
          demux.finish();
        }
        const core::FlowDemuxStats& st = demux.stats();
        rec.trace.records = st.records;
        flows.seen = st.flows_seen;
        flows.analyzed = st.flows_analyzed;
        flows.unanalyzable = st.flows_unanalyzable;
        flows.syn_scan = st.syn_scan;
        flows.no_payload = st.no_payload;
        flows.mid_stream = st.mid_stream;
        flows.degenerate = st.degenerate;
        demux_scope.counter("records", rec.trace.records);
        demux_scope.counter("flows", st.flows_seen);
        demux_scope.counter("peak_bytes", st.peak_bytes);
        acc.demux_closed += st.closed;
        acc.demux_evicted_capacity += st.evicted_capacity;
        acc.demux_peak_bytes = std::max(acc.demux_peak_bytes, st.peak_bytes);
        acc.skipped_frames += rec.trace.skipped_frames;
      }
      if (single) {
        rec.trace.local = single->trace->meta().local.to_string();
        rec.trace.remote = single->trace->meta().remote.to_string();
        rec.trustworthy = single->analysis.calibration.trustworthy();
        const auto& best = single->analysis.match.best();
        rec.best_name = best.profile.name;
        rec.best_fit = core::to_string(best.fit);
        rec.best_penalty = best.penalty;
        rec.identified = !rec.trace.truth.empty() &&
                         single->analysis.match.identifies(rec.trace.truth);
      }
    } catch (const std::exception& e) {
      load_failed = true;
      rec.error = e.what();
    }
    if (o.gate) o.gate->release(admitted);
    if (!load_failed) rec.flows = flows;

    auto emit = [&](const auto& record) {
      std::string row;
      {
        auto s = tracer.span(SpanName::kRender);
        row = record.to_json().dump();
      }
      ++acc.rows;
      acc.row_bytes += row.size();
      auto s = tracer.span(SpanName::kWriteRow);
      writer.write_row(row);
    };
    for (const auto& fr : res.flow_rows) emit(fr);
    emit(rec);
    acc.flow_rows += res.flow_rows.size();
    for (const auto& fr : res.flow_rows) {
      auto s = tracer.span(SpanName::kRollup);
      rollups.add(fr);
    }
  }
  const double capture_ms = ms_between(c0, Clock::now());

  auto redrive_span = tracer.span(SpanName::kRedrive);
  for (const RetainedFlow& f : retained)
    redrive_flow(f, !rec.trace.receiver_side, o, tracer, acc);
  return {rec.trace.records, capture_ms};
}

/// Captures whose rows go to one output file: a writer, its roll-ups, and
/// the record of what ran. Untraced lanes run daemon::run_capture_job;
/// traced lanes run the spanned replica.
class Lane {
 public:
  Lane(const std::vector<SourceCapture>& caps, const daemon::CaptureJobOptions& opts,
       const fs::path& out_path, std::uint64_t rotate_bytes, Tracer* tracer, LayerAcc* acc)
      : caps_(caps), opts_(opts), writer_(fresh(out_path), rotate_bytes), tracer_(tracer),
        acc_(acc) {}

  void run(std::size_t i, bool timed) {
    lr_.order.push_back(i);
    const daemon::CaptureJob job{caps_[i].path, caps_[i].key};
    const double cpu0 = thread_cpu_ms();
    const JobOut j = tracer_ ? traced_job(job, opts_, writer_, rollups_, *tracer_, *acc_)
                             : production_job(job, opts_, writer_, rollups_);
    const double cpu_ms = thread_cpu_ms() - cpu0;
    if (!timed) return;
    lr_.records += j.records;
    lr_.capture_ms.push_back(j.capture_ms);
    lr_.capture_cpu_ms.push_back(cpu_ms);
  }

  LoopResult& result() {
    lr_.rotations = writer_.rotations();
    return lr_;
  }

 private:
  /// The writer appends, so clear what an earlier run left behind.
  static std::string fresh(const fs::path& out_path) {
    std::uint64_t segment = 1;
    while (fs::remove(out_path.string() + "." + std::to_string(segment))) ++segment;
    fs::remove(out_path);
    return out_path.string();
  }

  const std::vector<SourceCapture>& caps_;
  const daemon::CaptureJobOptions& opts_;
  daemon::NdjsonWriter writer_;
  Rollups rollups_;
  Tracer* tracer_;
  LayerAcc* acc_;
  LoopResult lr_;
};

/// Captures timed between two runs of the host probe (~5 ms each).
constexpr double kProbeEveryMs = 200.0;

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

}  // namespace

LoopResult run_loop(const std::vector<SourceCapture>& caps,
                    const daemon::CaptureJobOptions& opts, const fs::path& out_path,
                    double seconds) {
  Lane lane(caps, opts, out_path, 0, nullptr, nullptr);
  for (std::size_t i = 0; i < caps.size(); ++i) lane.run(i, false);  // warm-up
  for (int i = 0; i < 3; ++i) host_probe_ms();
  LoopResult& lr = lane.result();
  // Each block of captures between two probes is converted with the mean
  // of the two.
  lr.probe_ms.push_back(host_probe_ms());
  std::size_t block_begin = 0;
  double block_ms = 0.0;
  auto close_block = [&] {
    const double before = lr.probe_ms.back();
    lr.probe_ms.push_back(host_probe_ms());
    lr.to_reference.resize(lr.capture_ms.size(),
                           to_reference((before + lr.probe_ms.back()) / 2.0));
    block_begin = lr.capture_ms.size();
    block_ms = 0.0;
  };
  const auto deadline = after(Clock::now(), seconds);
  bool first = true;
  for (std::size_t i = 0; first || Clock::now() < deadline; i = (i + 1) % caps.size()) {
    lane.run(i, true);
    first = false;
    block_ms += lr.capture_ms.back();
    if (block_ms >= kProbeEveryMs) close_block();
  }
  if (block_begin < lr.capture_ms.size()) close_block();
  return std::move(lane.result());
}

// ---- output checks ------------------------------------------------------------

RowCheck isolated_flow_check() {
  struct State {
    std::map<std::string, std::map<std::string, std::string>> ref_by_key;  ///< per capture
    std::map<std::string, std::vector<std::string>> verified_flows;
    std::map<std::string, std::string> verified_trace;
  };
  auto st = std::make_shared<State>();
  return [st](const SourceCapture& c, const std::vector<std::string>& flows,
              const std::string& trace_row) -> std::string {
    auto& refs = st->ref_by_key[c.key];
    if (refs.empty())
      for (const auto& r : c.reference) refs[Json::parse(r).find("key")->as_string()] = r;

    Json t = Json::parse(trace_row);
    if (const Json* err = t.find("error")) return "capture error: " + err->as_string();
    if (t.find("records")->as_int() != static_cast<std::int64_t>(c.records))
      return "trace row records != capture records";
    if (t.find("flows")->find("analyzed")->as_int() !=
        static_cast<std::int64_t>(c.reference.size()))
      return "trace row analyzed flows != reference flows";
    t.remove("timings");
    const std::string trace_norm = t.dump();
    auto [vt, first_trace] = st->verified_trace.emplace(c.key, trace_norm);
    if (!first_trace && vt->second != trace_norm) return "trace row differs between passes";

    auto vf = st->verified_flows.find(c.key);
    if (vf != st->verified_flows.end() && vf->second == flows) return {};
    if (flows.size() != refs.size()) return "flow row count != reference";
    std::set<std::string> seen;
    for (const auto& line : flows) {
      Json doc = Json::parse(line);
      const std::string key = doc.find("key")->as_string();
      doc.remove("serial");
      doc.remove("finalized_by");
      auto r = refs.find(key);
      if (r == refs.end()) return "flow row with no reference: " + key;
      if (!seen.insert(key).second) return "flow row twice: " + key;
      if (doc.dump() != r->second) return "flow row differs from isolated analysis: " + key;
    }
    st->verified_flows[c.key] = flows;
    return {};
  };
}

RowCheck serial_job_check() {
  return [](const SourceCapture& c, const std::vector<std::string>& flows,
            const std::string& trace_row) -> std::string {
    if (flows.size() + 1 != c.reference.size()) return "row count != serial reference";
    for (std::size_t i = 0; i < flows.size(); ++i)
      if (normalize_row(flows[i], {"file", "key"}) != c.reference[i])
        return "flow row differs from serial run_capture_job: " + c.key;
    if (normalize_row(trace_row, {"file", "timings"}) != c.reference.back())
      return "trace row differs from serial run_capture_job: " + c.key;
    return {};
  };
}

std::vector<fs::path> output_segments(const fs::path& path, std::uint64_t rotations) {
  std::vector<fs::path> segs;
  for (std::uint64_t i = 1; i <= rotations; ++i)
    segs.push_back(path.string() + "." + std::to_string(i));
  segs.push_back(path);
  return segs;
}

void check_loop_output(const std::vector<fs::path>& segments,
                       const std::vector<std::size_t>& order,
                       const std::vector<SourceCapture>& caps, const RowCheck& check,
                       CheckTally& tally) {
  std::size_t k = 0;
  std::vector<std::string> flows;
  for (const auto& seg : segments) {
    std::ifstream in(seg);
    std::string line;
    while (std::getline(in, line)) {
      const std::string type = row_type(line);
      if (type == "flow") {
        flows.push_back(std::move(line));
      } else if (type == "trace") {
        ++tally.captures;
        if (k >= order.size()) {
          tally.fail("more trace rows than captures run");
        } else {
          const SourceCapture& c = caps[order[k++]];
          std::string why = row_file(line) != c.key ? "trace row for the wrong file"
                                                    : check(c, flows, line);
          if (!why.empty()) tally.fail(std::move(why));
        }
        flows.clear();
      }
    }
  }
  for (; k < order.size(); ++k) {
    ++tally.captures;
    tally.fail("capture wrote no trace row: " + caps[order[k]].key);
  }
}

double top1_share(const std::vector<SourceCapture>& caps, std::size_t* analyzable_flows) {
  std::size_t analyzable = 0, top1 = 0;
  for (const auto& c : caps)
    for (const auto& r : c.reference) {
      const Json doc = Json::parse(r);
      const Json* best = doc.find("best");
      if (doc.find("type")->as_string() != "flow" || !best) continue;
      ++analyzable;
      auto t = c.truth.find(doc.find("src")->as_string());
      if (t != c.truth.end() && best->find("name")->as_string() == t->second) ++top1;
    }
  *analyzable_flows = analyzable;
  return analyzable ? static_cast<double>(top1) / static_cast<double>(analyzable) : 0.0;
}

LoopResult measure_layers(const std::vector<SourceCapture>& caps,
                          const daemon::CaptureJobOptions& opts, const fs::path& dir,
                          std::uint64_t rotate_bytes, double seconds_each,
                          const RowCheck& check, const fs::path& spans_path, Outcome& out,
                          CheckTally& tally) {
  const fs::path u_out = dir / "layers_untraced.ndjson";
  const fs::path t_out = dir / "layers_traced.ndjson";
  Tracer tracer;
  LayerAcc acc;
  Lane untraced(caps, opts, u_out, rotate_bytes, nullptr, nullptr);
  Lane traced(caps, opts, t_out, rotate_bytes, &tracer, &acc);
  for (std::size_t i = 0; i < caps.size(); ++i) untraced.run(i, false);  // warm-up
  // Layer times are as measured; the host probe around them says how fast
  // the host was meanwhile.
  std::vector<double> probes;
  for (int k = 0; k < 5; ++k) probes.push_back(host_probe_ms());
  // The same capture untraced and traced back to back, alternating which
  // goes first, so drift on a shared host falls on both alike.
  const auto deadline = after(Clock::now(), 2.0 * seconds_each);
  std::vector<double> gaps;
  auto prev_end = Clock::now();
  for (std::size_t round = 0; round == 0 || Clock::now() < deadline; ++round) {
    const std::size_t i = round % caps.size();
    const bool untraced_first = (round + round / caps.size()) % 2 == 0;
    for (Lane* lane : {untraced_first ? &untraced : &traced,
                       untraced_first ? &traced : &untraced}) {
      gaps.push_back(ms_between(prev_end, Clock::now()));
      lane->run(i, true);
      prev_end = Clock::now();
    }
  }
  for (int k = 0; k < 5; ++k) probes.push_back(host_probe_ms());
  LoopResult& u = untraced.result();
  const LoopResult& t = traced.result();
  u.gap_ms = std::move(gaps);
  check_loop_output(output_segments(u_out, u.rotations), u.order, caps, check, tally);
  check_loop_output(output_segments(t_out, t.rotations), t.order, caps, check, tally);
  if (acc.redrive_mismatches)
    out.problem(std::to_string(acc.redrive_mismatches) +
                " re-driven flows disagree with the demux verdict");
  tracer.write_tsv(spans_path.string());

  const auto self = tracer.self_ns();
  auto ns = [&](SpanName n) { return self[static_cast<std::size_t>(n)]; };
  const double recs = static_cast<double>(t.records);
  const double caps_run = static_cast<double>(acc.captures);
  const double flows = static_cast<double>(acc.flows_redriven);
  const double decode = ns(SpanName::kOpen) + ns(SpanName::kNextBatch);
  const double demux_self = ns(SpanName::kAddBatch) + ns(SpanName::kFinish) -
                            acc.annotate_ns - acc.calibrate_ns - acc.match_ns;
  const double layered = decode + demux_self + acc.annotate_ns + acc.calibrate_ns +
                         acc.match_ns + ns(SpanName::kSink) + ns(SpanName::kRender) +
                         ns(SpanName::kWriteRow) + ns(SpanName::kRollup);
  double traced_capture_ms = 0.0, untraced_capture_ms = 0.0;
  for (double ms : t.capture_ms) traced_capture_ms += ms;
  for (double ms : u.capture_ms) untraced_capture_ms += ms;
  const double untraced_ns_per_record =
      untraced_capture_ms * 1e6 / static_cast<double>(u.records);
  const double traced_ns_per_record = traced_capture_ms * 1e6 / recs;

  out.add("trace.decode_ns_per_record", decode / recs, "ns", t.records);
  out.add("trace.skipped_frames", static_cast<double>(acc.skipped_frames) / caps_run,
          "count", acc.captures);
  out.add("demux.self_ns_per_record", demux_self / recs, "ns", t.records);
  out.add("demux.peak_state_bytes", static_cast<double>(acc.demux_peak_bytes), "bytes",
          acc.captures);
  out.add("demux.closed", static_cast<double>(acc.demux_closed) / caps_run, "count",
          acc.captures);
  out.add("demux.evicted_capacity",
          static_cast<double>(acc.demux_evicted_capacity) / caps_run, "count",
          acc.captures);
  out.add("annotate.ns_per_record", acc.annotate_ns / recs, "ns", t.records);
  out.add("calibrate.ns_per_record", acc.calibrate_ns / recs, "ns", t.records);
  out.add("calibrate.reannotated_flows",
          static_cast<double>(acc.reannotated_flows) / caps_run, "count", acc.captures);
  out.add("match.ns_per_record", acc.match_ns / recs, "ns", t.records);
  out.add("match.ns_per_candidate_record", acc.match_ns / acc.candidate_records, "ns",
          t.records);
  out.add("match.tie_band_mean", static_cast<double>(acc.tie_band_sum) / flows,
          "profiles", acc.flows_redriven);
  out.add("sink.ns_per_flow", ns(SpanName::kSink) / static_cast<double>(acc.flow_rows),
          "ns", acc.flow_rows);
  out.add("report.render_ns_per_row",
          ns(SpanName::kRender) / static_cast<double>(acc.rows), "ns", acc.rows);
  out.add("report.bytes_per_row",
          static_cast<double>(acc.row_bytes) / static_cast<double>(acc.rows), "bytes",
          acc.rows);
  out.add("rollup.ns_per_flow", ns(SpanName::kRollup) / static_cast<double>(acc.flow_rows),
          "ns", acc.flow_rows);
  out.add("writer.write_us_per_row",
          ns(SpanName::kWriteRow) / 1000.0 / static_cast<double>(acc.rows), "us", acc.rows);
  out.add("trace_overhead_share", 1.0 - untraced_ns_per_record / traced_ns_per_record,
          "share", t.capture_ms.size());
  out.add("layers.accounted_share", layered / recs / untraced_ns_per_record, "share",
          t.capture_ms.size());
  out.add("hardware_concurrency", std::thread::hardware_concurrency(), "count");
  out.add("host.probe_ms", median(probes), "ms", probes.size());
  return u;
}

}  // namespace perfbench

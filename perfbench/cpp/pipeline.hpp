// The per-capture pipeline as `tcpanaly --batch --json` and the daemon run
// it -- run_capture_job, render every row, write it to an NdjsonWriter,
// fold it into the roll-ups -- in a closed loop, untraced or traced, plus
// the output checks and the per-layer metrics derived from the spans.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "tracer.hpp"

namespace perfbench {

/// What the traced loop accumulates besides its spans: the layers
/// FlowDemux calls internally, timed by re-driving each analyzable flow
/// through AnnotationBuilder and calibrate_and_match (with a StageTimer).
struct LayerAcc {
  double annotate_ns = 0.0;
  double calibrate_ns = 0.0;  ///< "calibrate" plus any "conformance" re-run
  double match_ns = 0.0;
  double candidate_records = 0.0;  ///< records x candidates, per flow
  std::uint64_t captures = 0;
  std::uint64_t flows_redriven = 0;
  std::uint64_t reannotated_flows = 0;
  std::uint64_t tie_band_sum = 0;
  std::uint64_t redrive_mismatches = 0;  ///< re-driven verdict != demux verdict
  std::uint64_t flow_rows = 0;
  std::uint64_t rows = 0;
  std::uint64_t row_bytes = 0;
  std::uint64_t skipped_frames = 0;
  std::uint64_t demux_closed = 0;
  std::uint64_t demux_evicted_capacity = 0;
  std::uint64_t demux_peak_bytes = 0;  ///< max over captures
};

struct CheckTally {
  std::uint64_t captures = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first few, for the log

  void fail(std::string why) {
    ++failed;
    if (problems.size() < 5) problems.push_back(std::move(why));
  }
};

struct LoopResult {
  std::vector<double> capture_ms;  ///< per timed capture (traced: capture span)
  std::vector<double> capture_cpu_ms;  ///< the same captures' thread CPU time
  /// run_loop: every host probe, and per timed capture the to_reference
  /// factor of the probes run before and after it.
  std::vector<double> probe_ms;
  std::vector<double> to_reference;
  std::vector<double> gap_ms;      ///< completion -> next submission (measure_layers)
  std::uint64_t records = 0;       ///< records in timed captures
  std::uint64_t rotations = 0;
  /// Index into the capture list of every capture the loop ran, in
  /// output order (warm-up included).
  std::vector<std::size_t> order;
};

/// Verdict on one capture's rows: its flow rows in output order and its
/// trace row. Returns an empty string when they are correct.
using RowCheck = std::function<std::string(const SourceCapture&,
                                           const std::vector<std::string>& flow_rows,
                                           const std::string& trace_row)>;

/// busy_link / long_flows: flow rows must equal the isolated-flow
/// reference, and the trace row must carry the capture's record and flow
/// counts and be the same on every pass.
RowCheck isolated_flow_check();
/// daemon_mixed: rows must equal the serial run_capture_job reference.
RowCheck serial_job_check();

/// The closed loop on one thread: captures round-robin, one at a time,
/// after one untimed warm-up pass over the list, until `seconds` have
/// passed. The host probe runs before the first timed capture and then
/// after every kProbeEveryMs of captures.
LoopResult run_loop(const std::vector<SourceCapture>& caps,
                    const tcpanaly::daemon::CaptureJobOptions& opts,
                    const fs::path& out_path, double seconds);

/// The NDJSON files of one writer in write order: rotated segments first.
std::vector<fs::path> output_segments(const fs::path& path, std::uint64_t rotations);

/// Check the rows a loop wrote: captures in `order`, rows grouped by
/// position (the loop is serial).
void check_loop_output(const std::vector<fs::path>& segments,
                       const std::vector<std::size_t>& order,
                       const std::vector<SourceCapture>& caps, const RowCheck& check,
                       CheckTally& tally);

/// Share of analyzable flows whose best-ranked profile is the generating
/// one, over the reference rows (which the checks prove the program's);
/// `analyzable_flows` receives the denominator.
double top1_share(const std::vector<SourceCapture>& caps, std::size_t* analyzable_flows);

/// Each capture untraced (U) and through the spanned replica (T), back to
/// back, for about 2 x `seconds_each`; appends every pipeline-layer
/// metric, the tracing overhead and the accounted share to `out`, checks
/// both lanes' rows, and writes the spans to `spans_path`. Returns U.
LoopResult measure_layers(const std::vector<SourceCapture>& caps,
                          const tcpanaly::daemon::CaptureJobOptions& opts,
                          const fs::path& dir, std::uint64_t rotate_bytes,
                          double seconds_each, const RowCheck& check,
                          const fs::path& spans_path, Outcome& out, CheckTally& tally);

}  // namespace perfbench

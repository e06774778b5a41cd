// busy_link and long_flows: one multi-connection capture through the
// --batch per-capture pipeline, closed loop on one thread.
#include <algorithm>

#include "pipeline.hpp"

namespace perfbench {

namespace {

constexpr int kSetupBlocks = 25;
constexpr int kSetupsPerBlock = 100;
constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

Outcome run_capture_workload(const Args& args) {
  const CaptureWorkload w = capture_workload(args.workload, args.smoke);
  const std::vector<SourceCapture> caps = read_manifest(args.dir / "manifest.txt");
  Outcome out;
  CheckTally tally;
  tcpanaly::util::MemTracker stream_mem;

  // Set-up before the first capture can be accepted: registry load and
  // candidate resolution. A few microseconds, so timed (in thread CPU
  // time) over blocks of repeats, and the median block kept (at reference
  // speed).
  std::vector<double> setup_s;
  tcpanaly::daemon::CaptureJobOptions opts;
  const double setup_ref_before = probe_to_reference(3);
  for (int b = 0; b < kSetupBlocks; ++b) {
    const double t0 = thread_cpu_ms();
    for (int i = 0; i < kSetupsPerBlock; ++i)
      opts = job_options(resolve_candidates(w.candidates), &stream_mem);
    setup_s.push_back((thread_cpu_ms() - t0) / 1000.0 / kSetupsPerBlock);
  }
  const double setup_ref = (setup_ref_before + probe_to_reference(3)) / 2.0;

  if (!args.trace) {
    const fs::path out_path = args.dir / "out.ndjson";
    const LoopResult lr = run_loop(caps, opts, out_path, args.seconds);
    const double hwm = peak_rss_mb();
    check_loop_output({out_path}, lr.order, caps, isolated_flow_check(), tally);
    // Capture times at reference speed; records over their sum. The loop
    // is the only thread at work and waits for nothing but page-cache
    // writes, so its CPU time is its wall time less what the host took.
    const std::size_t n = lr.capture_cpu_ms.size();
    std::vector<double> ref_ms(n);
    double busy_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ref_ms[i] = lr.capture_cpu_ms[i] * lr.to_reference[i];
      busy_s += ref_ms[i] / 1000.0;
    }
    double p90_q = 0.9;
    const double p90 = tail_quantile(ref_ms, 0.9, &p90_q);
    out.add("setup_s", median(setup_s) * setup_ref, "s", setup_s.size());
    out.add("records_per_s", static_cast<double>(lr.records) / busy_s, "1/s", n);
    out.add("interactive_ms_p50", median(ref_ms), "ms", n);
    out.add("interactive_ms_p90", p90, "ms", n);
    out.add("peak_rss_mb", hwm, "MiB");
    out.add("peak_state_mb", static_cast<double>(stream_mem.peak()) / kMiB, "MiB");
    std::size_t flows = 0;
    const double top1 = top1_share(caps, &flows);
    out.add("top1_share", top1, "share", flows);
    double cpu_s = 0.0;
    for (double ms : lr.capture_cpu_ms) cpu_s += ms / 1000.0;
    std::printf("note: host probe %.3f ms (median; reference %.1f ms); as measured: "
                "records_per_s %.0f, interactive_ms_p50 %.3f\n",
                median(lr.probe_ms), kReferenceProbeMs,
                static_cast<double>(lr.records) / cpu_s, median(lr.capture_cpu_ms));
    if (p90_q < 0.9)
      std::printf("note: %zu captures, so interactive_ms_p90 is the p%.0f\n", n,
                  p90_q * 100.0);
  } else {
    const LoopResult u =
        measure_layers(caps, opts, args.dir, 0, args.seconds / 2.0, isolated_flow_check(),
                       args.dir.parent_path() / ("spans-" + args.workload + ".tsv"), out,
                       tally);
    // A closed loop submits the next capture when the previous completes:
    // its queue wait and generator lag are that gap (between any two jobs
    // of the alternating untraced/traced loop).
    out.add("daemon.capture_job_ms_p50", median(u.capture_ms), "ms", u.capture_ms.size());
    out.add("daemon.queue_wait_ms_p90", quantile(u.gap_ms, 0.9), "ms", u.gap_ms.size());
    out.add("gen.lag_ms_max", *std::max_element(u.gap_ms.begin(), u.gap_ms.end()), "ms",
            u.gap_ms.size());
    out.add("writer.rotations", static_cast<double>(u.rotations), "count");
    out.add("scheduler.tasks_stolen", 0, "count");
    out.add("gate.deferred", 0, "count");
    out.add("gate.oversized", 0, "count");
  }

  out.attempted = tally.captures;
  out.failed = tally.failed;
  for (const auto& p : tally.problems) out.problem(p);
  return out;
}

}  // namespace perfbench

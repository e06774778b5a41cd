// perfbench: the pipeline benchmark's program.
//
//   perfbench gen --workload W --seed N --dir D [--smoke]
//       simulate the workload's inputs from the seed into D, with the rows
//       a correct analysis renders for them;
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D [--smoke]
//       measure for S seconds, check every row written, print a metric
//       table and, as the last line, the result document.
//
// Exit status: 0 when every output check passed, 1 when some failed (the
// document still prints), 2 when the run could not complete (no document).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Json;

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench gen|run --workload W ...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload")
      a.workload = v;
    else if (flag == "--seed")
      a.seed = std::stoull(v);
    else if (flag == "--seconds")
      a.seconds = std::stod(v);
    else if (flag == "--trace")
      a.trace = v != "0";
    else if (flag == "--dir")
      a.dir = v;
    else
      throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty() || a.dir.empty() || !(a.seconds > 0.0))
    throw std::invalid_argument("--workload, --dir and a positive --seconds are required");
  return a;
}

void print(const perfbench::Outcome& o) {
  std::printf("%-32s %16s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const auto& m : o.metrics)
    std::printf("%-32s %16.6g %-8s %zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  for (const auto& p : o.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  Json metrics = Json::object();
  for (const auto& m : o.metrics) {
    Json v = Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  Json doc = Json::object();
  doc.set("correct", o.correct);
  doc.set("attempted", static_cast<unsigned long long>(o.attempted));
  doc.set("failed", static_cast<unsigned long long>(o.failed));
  doc.set("metrics", std::move(metrics));
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "gen") {
      perfbench::generate(args);
      return 0;
    }
    if (args.command != "run")
      throw std::invalid_argument("unknown command " + args.command);
    const perfbench::Outcome o = args.workload == "daemon_mixed"
                                     ? perfbench::run_daemon_mixed(args)
                                     : perfbench::run_capture_workload(args);
    print(o);
    return o.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

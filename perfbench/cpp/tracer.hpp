// Span recording for the traced run. Spans are opened only in the
// benchmark's own code, around public calls into each layer; each has a
// name, start, end, parent and capture id, is kept in memory, and is
// written out when the run ends. A layer's self time is its spans'
// durations minus the part their child spans cover.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kCapture,         ///< one capture job, end to end (root)
  kOpen,            ///< trace::open_capture_source
  kNextBatch,       ///< RecordSource::next_batch
  kAddBatch,        ///< FlowDemux::add_batch
  kFinish,          ///< FlowDemux::finish
  kSink,            ///< the demux sink: flow row assembly
  kRender,          ///< to_json().dump() of one row
  kWriteRow,        ///< NdjsonWriter::write_row
  kRollup,          ///< ConformanceRollup/CalibrationRollup::add
  kRedrive,         ///< re-driving a capture's flows through the layers (root)
  kAnnotate,        ///< AnnotationBuilder add + finish_full
  kCalibrateMatch,  ///< core::calibrate_and_match
  kCount,
};

inline const char* to_string(SpanName n) {
  static constexpr const char* kSpanNames[] = {
      "capture", "open", "next_batch", "add_batch", "finish", "sink", "render",
      "write_row", "rollup", "redrive", "annotate", "calibrate_and_match"};
  return kSpanNames[static_cast<std::size_t>(n)];
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::size_t kNames = static_cast<std::size_t>(SpanName::kCount);

  struct Span {
    SpanName name;
    std::uint32_t parent;
    std::uint32_t capture;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer& t, SpanName name) : tracer_(t), index_(t.open(name)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t index_;
  };

  Scope span(SpanName name) { return Scope(*this, name); }
  void set_capture(std::uint32_t id) { capture_ = id; }

  /// Summed self time per span name, in nanoseconds.
  std::array<double, kNames> self_ns() const {
    std::array<double, kNames> self{};
    for (const Span& s : spans_) {
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      self[static_cast<std::size_t>(s.name)] += d;
      if (s.parent != kNoParent)
        self[static_cast<std::size_t>(spans_[s.parent].name)] -= d;
    }
    return self;
  }

  /// One line per span: index, name, parent (-1 for roots), capture,
  /// start and end in nanoseconds of the steady clock.
  void write_tsv(const std::string& path) const {
    std::ofstream out(path);
    out << "index\tname\tparent\tcapture\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << to_string(s.name) << '\t'
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent)) << '\t'
          << s.capture << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::uint32_t open(SpanName name) {
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, parent, capture_, now_ns(), 0});
    stack_.push_back(index);
    return index;
  }

  void close(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t capture_ = 0;
};

}  // namespace perfbench

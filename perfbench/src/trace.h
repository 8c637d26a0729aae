// In-memory spans of the traced run, one buffer per pool lane, written out
// at exit as Chrome trace-event JSON (opens in Perfetto / chrome://tracing)
// together with each layer's self time.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// A span's parent, addressed as (lane, index in that lane's buffer).
struct SpanRef {
  int lane{-1};
  std::int32_t index{-1};
};

struct Span {
  const char* name{""};  ///< "<layer>.<what>", e.g. "grid.window_build"
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  SpanRef parent;
  /// Request id shared by every span of one net-round (0: not per net).
  std::uint64_t id{0};
};

class Tracer {
 public:
  explicit Tracer(int lanes);

  /// Opens a span on `lane`; the returned ref closes it. A lane's buffer is
  /// written only by the thread currently running that lane.
  SpanRef open(int lane, const char* name, SpanRef parent = {},
               std::uint64_t id = 0);
  void close(SpanRef ref);
  /// Records a span whose interval was measured by the caller.
  void record(int lane, const char* name, std::int64_t start_ns,
              std::int64_t end_ns);

  std::int64_t now_ns() const;

  /// Self time per layer (the name's prefix before '.'): each span's
  /// duration minus the part of its interval covered by its children.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Writes the trace-event file; `meta` is a JSON object text placed under
  /// "otherData" next to the self times.
  bool write_chrome_json(const std::string& path,
                         const std::string& meta) const;

 private:
  Clock::time_point epoch_;
  std::vector<std::vector<Span>> lanes_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int lane, const char* name, SpanRef parent = {},
             std::uint64_t id = 0)
      : tracer_(tracer),
        ref_(tracer != nullptr ? tracer->open(lane, name, parent, id)
                               : SpanRef{}) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(ref_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanRef ref() const { return ref_; }

 private:
  Tracer* tracer_;
  SpanRef ref_;
};

}  // namespace perfbench

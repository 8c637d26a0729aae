#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

namespace perfbench {

Tracer::Tracer(int lanes)
    : epoch_(Clock::now()), lanes_(static_cast<std::size_t>(lanes)) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

SpanRef Tracer::open(int lane, const char* name, SpanRef parent,
                     std::uint64_t id) {
  std::vector<Span>& buf = lanes_[static_cast<std::size_t>(lane)];
  Span s;
  s.name = name;
  s.parent = parent;
  s.id = id;
  s.start_ns = now_ns();
  buf.push_back(s);
  return SpanRef{lane, static_cast<std::int32_t>(buf.size() - 1)};
}

void Tracer::close(SpanRef ref) {
  lanes_[static_cast<std::size_t>(ref.lane)]
        [static_cast<std::size_t>(ref.index)]
            .end_ns = now_ns();
}

void Tracer::record(int lane, const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  lanes_[static_cast<std::size_t>(lane)].push_back(s);
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  // Child intervals per parent, keyed by (lane, index).
  std::map<std::pair<int, std::int32_t>,
           std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const std::vector<Span>& buf : lanes_) {
    for (const Span& s : buf) {
      if (s.parent.lane >= 0) {
        children[{s.parent.lane, s.parent.index}].emplace_back(s.start_ns,
                                                               s.end_ns);
      }
    }
  }
  std::map<std::string, double> out;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const std::vector<Span>& buf = lanes_[lane];
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const Span& s = buf[i];
      std::int64_t covered = 0;
      const auto it = children.find(
          {static_cast<int>(lane), static_cast<std::int32_t>(i)});
      if (it != children.end()) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t lo = 0;
        std::int64_t hi = -1;
        for (const auto& [b0, e0] : iv) {
          const std::int64_t b = std::max(b0, s.start_ns);
          const std::int64_t e = std::min(e0, s.end_ns);
          if (e <= b) continue;
          if (b > hi) {
            if (hi > lo) covered += hi - lo;
            lo = b;
            hi = e;
          } else {
            hi = std::max(hi, e);
          }
        }
        if (hi > lo) covered += hi - lo;
      }
      const std::string name(s.name);
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& meta) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    for (std::size_t i = 0; i < lanes_[lane].size(); ++i) {
      const Span& s = lanes_[lane][i];
      const std::string name(s.name);
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": "
          "\"%zu:%zu\", \"parent\": \"%d:%d\", \"id\": %llu}}",
          first ? "" : ",\n", s.name, name.substr(0, name.find('.')).c_str(),
          lane, static_cast<double>(s.start_ns) * 1e-3,
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3, lane, i,
          s.parent.lane, s.parent.index,
          static_cast<unsigned long long>(s.id));
      f << buf;
      first = false;
    }
  }
  f << "\n], \"otherData\": {\"meta\": " << meta << ", \"self_time_s\": {";
  first = true;
  for (const auto& [layer, secs] : self_seconds_by_layer()) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6f", first ? "" : ", ",
                  layer.c_str(), secs);
    f << buf;
    first = false;
  }
  f << "}}}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench

#include "perfbench/spans.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

uint64_t SpanLog::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

uint64_t SpanLog::Begin(const char* name) {
  const uint64_t id = next_id_++;
  const uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  const uint64_t now = NowUs();
  size_t index = SIZE_MAX;
  if (spans_.size() < kMaxSpans) {
    index = spans_.size();
    spans_.push_back(Span{name, id, parent, now, now});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, index, id, now});
  return id;
}

void SpanLog::End(uint64_t id) {
  if (stack_.empty() || stack_.back().id != id) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t now = NowUs();
  const uint64_t duration = now - open.start_us;
  if (open.index != SIZE_MAX) {
    spans_[open.index].end_us = now;
  }
  self_s_[open.name] +=
      static_cast<double>(duration - std::min(duration, open.child_us)) *
      1e-6;
  if (!stack_.empty()) {
    stack_.back().child_us += duration;
  }
}

std::map<std::string, double> SpanLog::LayerSelfSeconds() const {
  std::map<std::string, double> layers;
  for (const auto& [name, seconds] : self_s_) {
    layers[name.substr(0, name.find('.'))] += seconds;
  }
  return layers;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1,"
         " \"args\": {\"name\": \"perfbench\"}}";
  char line[320];
  for (const Span& span : spans_) {
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(line, sizeof(line),
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %llu, \"dur\": %llu, "
                  "\"args\": {\"id\": %llu, \"parent\": %llu}}",
                  name.c_str(), layer.c_str(),
                  static_cast<unsigned long long>(span.start_us),
                  static_cast<unsigned long long>(span.end_us -
                                                  span.start_us),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent));
    out << line;
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench

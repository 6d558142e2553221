#include "harness/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  if (tracer_->spans_.size() >= kMaxSpans) {
    ++tracer_->dropped_;
    tracer_ = nullptr;
    return;
  }
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = request;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
  tracer_->spans_.back().start_ns = tracer_->Now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->Now();
  tracer_->open_.pop_back();
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  spans_.push_back(Span{name, ns(start), ns(end), -1, request});
}

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const std::int64_t self =
        spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    out.push_back(static_cast<double>(self) / 1000.0);
  }
  return out;
}

bool Tracer::Write(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

}  // namespace perfbench

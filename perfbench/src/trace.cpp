#include "trace.hpp"

#include <cstdio>

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

int Tracer::begin(const std::string& name) {
  SpanRecord s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is outside the span.
  spans_[static_cast<size_t>(id)].start_s = now();
  return id;
}

void Tracer::end(int span) {
  spans_[static_cast<size_t>(span)].end_s = now();
  FROSCH_CHECK(!open_.empty() && open_.back() == span,
               "Tracer: spans must close innermost first");
  open_.pop_back();
}

void Tracer::add_complete(const std::string& name, double start_s,
                          double end_s, int parent) {
  SpanRecord s;
  s.name = name;
  s.start_s = start_s;
  s.end_s = end_s;
  s.parent = parent;
  s.request = spans_[static_cast<size_t>(parent)].request;
  spans_.push_back(std::move(s));
}

double Tracer::total(const std::string& name) const {
  double t = 0.0;
  for (const auto& s : spans_)
    if (s.name == name) t += s.seconds();
  return t;
}

double Tracer::self(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.seconds();
  double t = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) t += spans_[i].seconds() - child[i];
  return t;
}

std::int64_t Tracer::count(const std::string& name) const {
  std::int64_t c = 0;
  for (const auto& s : spans_)
    if (s.name == name) ++c;
  return c;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"request\": %d}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.start_s * 1e6,
                 s.seconds() * 1e6, i, s.parent, s.request);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// Span tracing for the traced benchmark run.  Every timed call into a
// library layer becomes one span: name, start, end, parent span, and the
// id of the request (one setup, one solve, one refresh, one replay group)
// it belongs to.  Spans stay in memory and are written once, at exit, as
// Chrome Trace Event JSON (opens in Perfetto / chrome://tracing).
//
// The operator wrappers below time the Krylov method's two callbacks.  They
// forward both apply() and apply_columns() to the wrapped operator, so the
// block Krylov path still reaches DistCsrOperator's fused one-import block
// SpMV -- a wrapper that only overrode apply_impl would time a different
// program.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "frosch.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 at top level
  int request = 0;       ///< shared by every span of one request
  double seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : t0_(std::chrono::steady_clock::now()) {}

  /// Starts a new request: spans opened from now on carry its id.
  int new_request() { return ++request_; }

  int begin(const std::string& name);
  void end(int span);

  /// Records a span whose clock the library kept (start/end in tracer
  /// seconds) as a child of `parent`.
  void add_complete(const std::string& name, double start_s, double end_s,
                    int parent);

  double now() const;

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Summed duration / summed self time (duration minus the time covered
  /// by direct children) / count of all spans with this name.
  double total(const std::string& name) const;
  double self(const std::string& name) const;
  std::int64_t count(const std::string& name) const;

  /// Writes every span as Chrome Trace Event JSON ("X" complete events).
  bool write_chrome_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  int request_ = 0;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Times every application of the wrapped operator as a span named
/// `name`; results are the wrapped operator's, bit for bit.
class TimedOperator final : public frosch::krylov::LinearOperator<double> {
 public:
  TimedOperator(const frosch::krylov::LinearOperator<double>& inner,
                Tracer& tracer, std::string name)
      : inner_(inner), tracer_(tracer), name_(std::move(name)) {}

  frosch::index_t rows() const override { return inner_.rows(); }
  frosch::index_t cols() const override { return inner_.cols(); }

 protected:
  void apply_impl(const std::vector<double>& x, std::vector<double>& y,
                  frosch::OpProfile* prof) const override {
    Span s(tracer_, name_);
    inner_.apply(x, y, prof);
  }

  void apply_columns_impl(const std::vector<const std::vector<double>*>& X,
                          const std::vector<std::vector<double>*>& Y,
                          frosch::OpProfile* prof) const override {
    Span s(tracer_, name_);
    inner_.apply_columns(X, Y, prof);
  }

 private:
  const frosch::krylov::LinearOperator<double>& inner_;
  Tracer& tracer_;
  std::string name_;
};

}  // namespace perfbench

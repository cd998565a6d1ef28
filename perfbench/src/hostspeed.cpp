#include "hostspeed.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace perfbench {

namespace {
constexpr int kGrid = 40;
constexpr int kSweeps = 20;
constexpr double kDiag = 6.5;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

SpeedProbe::Lane::Lane() {
  const int n = kGrid;
  rowptr.assign(1, 0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        const int r = (k * n + j) * n + i;
        auto add = [&](int c, double a) {
          col.push_back(c);
          val.push_back(a);
        };
        if (k > 0) add(r - n * n, -1.0);
        if (j > 0) add(r - n, -1.0);
        if (i > 0) add(r - 1, -1.0);
        add(r, kDiag);
        if (i < n - 1) add(r + 1, -1.0);
        if (j < n - 1) add(r + n, -1.0);
        if (k < n - 1) add(r + n * n, -1.0);
        rowptr.push_back(static_cast<int>(col.size()));
      }
  x.resize(static_cast<size_t>(n) * n * n);
  y.resize(x.size());
}

void SpeedProbe::Lane::sweeps() {
  // Restart from ones each time: repeated sweeps of the scaled stencil
  // decay towards zero, and subnormals would slow the kernel down.
  std::fill(x.begin(), x.end(), 1.0);
  for (int s = 0; s < kSweeps; ++s) {
    for (size_t r = 0; r + 1 < rowptr.size(); ++r) {
      double acc = 0.0;
      for (int p = rowptr[r]; p < rowptr[r + 1]; ++p)
        acc += val[static_cast<size_t>(p)] *
               x[static_cast<size_t>(col[static_cast<size_t>(p)])];
      y[r] = acc / kDiag;
    }
    x.swap(y);
  }
  sink += x[x.size() / 2];
}

SpeedProbe::SpeedProbe(int threads)
    : lanes_(static_cast<size_t>(std::max(1, threads))) {}

double SpeedProbe::run() {
  auto run_lane = [](Lane* l) {
    l->sweeps();
    const double t0 = now_s();
    l->sweeps();
    l->seconds = now_s() - t0;
  };
  std::vector<std::thread> others;
  for (size_t i = 1; i < lanes_.size(); ++i)
    others.emplace_back(run_lane, &lanes_[i]);
  run_lane(&lanes_[0]);
  for (auto& t : others) t.join();
  double sum = 0.0;
  for (const auto& l : lanes_) sum += l.seconds;
  return sum / static_cast<double>(lanes_.size());
}

}  // namespace perfbench

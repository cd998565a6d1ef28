// The benchmark's workloads: seeded input generation and solver
// configuration.  The solver only ever sees the generated matrices and
// vectors; everything random derives from the --seed argument.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frosch.hpp"

namespace perfbench {

/// splitmix64: a tiny, fully specified generator, so the same seed gives
/// the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t s_;
};

enum class SolvePath {
  Single,   ///< one Solver::solve per right-hand side
  Session,  ///< right-hand sides streamed through SolveSession blocks
};

/// One workload's generated inputs and configuration.  A measured cycle is
///   cold setup(A, Z) -> one solve unit -> for each matrix in `steps`:
///   refresh(step) -> one solve unit,
/// where a solve unit is one Solver::solve (Single) or one SolveSession
/// flush of `cfg.block_size` right-hand sides (Session).
struct Workload {
  std::string name;
  frosch::SolverConfig cfg;
  SolvePath path = SolvePath::Single;
  frosch::la::CsrMatrix<double> A;
  frosch::la::DenseMatrix<double> Z;
  std::vector<frosch::la::CsrMatrix<double>> steps;  ///< same pattern as A

  /// Right-hand sides one solve unit consumes.
  int unit_width() const {
    return path == SolvePath::Session ? static_cast<int>(cfg.block_size) : 1;
  }
};

const std::vector<std::string>& workload_names();

/// Builds the named workload from the seed.  `smoke` shrinks the meshes
/// for the benchmark's own smoke test; configurations are unchanged.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke);

/// Seeded stream of right-hand sides, uniform in [-1, 1).
class RhsStream {
 public:
  RhsStream(std::uint64_t seed, frosch::index_t n)
      : rng_(seed ^ 0x5DEECE66Dull), n_(n) {}
  std::vector<double> next();

 private:
  Rng rng_;
  frosch::index_t n_;
};

/// FNV-1a hash of the generated matrices plus the first `num_rhs` vectors
/// of a fresh RhsStream -- recorded with the seed in the output.
std::uint64_t input_hash(const Workload& w, std::uint64_t seed, int num_rhs);

}  // namespace perfbench

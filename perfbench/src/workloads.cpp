#include "workloads.hpp"

#include <array>

namespace perfbench {

using frosch::index_t;
using frosch::IndexVector;
using frosch::ParameterList;
using frosch::SolverConfig;
namespace fem = frosch::fem;
namespace la = frosch::la;

namespace {

IndexVector x0_face_dofs(const fem::BrickMesh& mesh) {
  IndexVector fixed;
  for (index_t node : mesh.x0_face_nodes()) fixed.push_back(node);
  return fixed;
}

/// A shifted copy of A: every diagonal entry times (1 + shift).  Same
/// pattern, new values -- one step of an implicit time-stepping sequence
/// (mass-lumped M/dt + K) as seen by the refresh path.
la::CsrMatrix<double> diagonal_shift(const la::CsrMatrix<double>& A,
                                     double shift) {
  la::CsrMatrix<double> B = A;
  for (index_t i = 0; i < B.num_rows(); ++i)
    for (index_t k = B.row_begin(i); k < B.row_end(i); ++k)
      if (B.col(k) == i) B.val(k) *= 1.0 + shift;
  return B;
}

Workload laplace_tacho(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "laplace-tacho";
  // Paper defaults otherwise: rGDSW coarse space, tacho-like multifrontal
  // Cholesky with nested dissection, single-reduce GMRES(30).
  w.cfg = SolverConfig::from_parameters(ParameterList()
                                            .set("num-parts", 8)
                                            .set("threads", 1)
                                            .set("tol", 1e-7));
  const index_t e = smoke ? 8 : 24;
  fem::BrickMesh mesh(e, e, e);
  auto sys = fem::apply_dirichlet(fem::assemble_laplace(mesh),
                                  x0_face_dofs(mesh));
  w.A = std::move(sys.A);
  w.Z = fem::restrict_nullspace(fem::laplace_nullspace(mesh), sys.keep);
  Rng rng(seed);
  for (int k = 0; k < 2; ++k)
    w.steps.push_back(diagonal_shift(w.A, rng.uniform(1e-6, 1e-5)));
  return w;
}

Workload elasticity_ilu_batch(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "elasticity-ilu-batch";
  w.path = SolvePath::Session;
  w.cfg = SolverConfig::from_parameters(ParameterList()
                                            .set("dof-block-size", 3)
                                            .set("num-parts", 8)
                                            .set("coarse-space", "gdsw")
                                            .set("subdomain-solver", "iluk")
                                            .set("ilu-level", 1)
                                            .set("threads", 2)
                                            .set("block-size", 4)
                                            .set("tol", 1e-7));
  const index_t e = smoke ? 6 : 14;
  fem::BrickMesh mesh(e, e, e);
  auto sys = fem::apply_dirichlet(fem::assemble_elasticity(mesh),
                                  fem::clamped_x0_dofs(mesh));
  w.A = std::move(sys.A);
  w.Z = fem::restrict_nullspace(fem::elasticity_nullspace(mesh), sys.keep);
  Rng rng(seed);
  for (int k = 0; k < 2; ++k)
    w.steps.push_back(diagonal_shift(w.A, rng.uniform(1e-6, 1e-5)));
  return w;
}

Workload convdiff_mlevel_sequence(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "convdiff-mlevel-sequence";
  w.cfg = SolverConfig::from_parameters(
      ParameterList()
          .set("num-parts", 32)
          .set("ranks", 8)
          .set("coarse-space", "gdsw")
          .set("krylov", "gmres")
          .set("levels", 3)
          .set("coarse_ranks", "all")
          .set("subdomain-solver", "superlu-like")
          .set("exec", "device")
          .set("threads", 2)
          .set("tol", 1e-7));
  const index_t e = smoke ? 10 : 22;
  fem::BrickMesh mesh(e, e, e);
  const IndexVector fixed = x0_face_dofs(mesh);
  Rng rng(seed);
  // Diffusion and velocity of each matrix jitter by up to 10% around
  // eps = 0.5, b = (1, 0.5, 0.25); the Q1 pattern never changes.
  auto next_matrix = [&]() {
    const double eps = 0.5 * rng.uniform(0.9, 1.1);
    const std::array<double, 3> b = {1.0 * rng.uniform(0.9, 1.1),
                                     0.5 * rng.uniform(0.9, 1.1),
                                     0.25 * rng.uniform(0.9, 1.1)};
    return fem::apply_dirichlet(
        fem::assemble_convection_diffusion(mesh, eps, b), fixed);
  };
  auto sys = next_matrix();
  w.A = std::move(sys.A);
  w.Z = fem::restrict_nullspace(fem::laplace_nullspace(mesh), sys.keep);
  for (int k = 0; k < 2; ++k) w.steps.push_back(next_matrix().A);
  return w;
}

void fnv(std::uint64_t& h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
}

template <class T>
void fnv(std::uint64_t& h, const std::vector<T>& v) {
  fnv(h, v.data(), v.size() * sizeof(T));
}

void fnv(std::uint64_t& h, const la::CsrMatrix<double>& A) {
  fnv(h, A.rowptr());
  fnv(h, A.colind());
  fnv(h, A.values());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "laplace-tacho", "elasticity-ilu-batch", "convdiff-mlevel-sequence"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  if (name == "laplace-tacho") return laplace_tacho(seed, smoke);
  if (name == "elasticity-ilu-batch") return elasticity_ilu_batch(seed, smoke);
  if (name == "convdiff-mlevel-sequence")
    return convdiff_mlevel_sequence(seed, smoke);
  FROSCH_CHECK(false, "unknown workload '" << name << "'");
  return {};
}

std::vector<double> RhsStream::next() {
  std::vector<double> b(static_cast<size_t>(n_));
  for (auto& v : b) v = rng_.uniform(-1.0, 1.0);
  return b;
}

std::uint64_t input_hash(const Workload& w, std::uint64_t seed, int num_rhs) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv(h, w.A);
  fnv(h, w.Z.data(),
      static_cast<size_t>(w.Z.num_rows()) * w.Z.num_cols() * sizeof(double));
  for (const auto& S : w.steps) fnv(h, S);
  RhsStream rhs(seed, w.A.num_rows());
  for (int i = 0; i < num_rhs; ++i) fnv(h, rhs.next());
  return h;
}

}  // namespace perfbench

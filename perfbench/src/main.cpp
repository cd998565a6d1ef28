// perfbench: the measured benchmark of miniFROSch.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics: cold setups, refreshes and
// solves in a closed loop (one client; each call waits for the previous
// one) for S seconds, every solution verified, each phase's wall time
// normalized to the host's speed (hostspeed.hpp).  --trace 1 is the separate
// traced run: one setup, then every library layer's public call timed as a
// span from this file (replaying setup-side layers on the same inputs),
// with the traced solves checked bitwise against untraced ones.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any failed gate makes `correct` false and the exit code 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "frosch.hpp"
#include "hostspeed.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace frosch;
using perfbench::Span;
using perfbench::TimedOperator;
using perfbench::Tracer;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out PATH]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(value().c_str());
    else if (k == "--trace") a.trace = std::atoi(value().c_str());
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--trace-out") a.trace_out = value();
    else usage(("unknown argument " + k).c_str());
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage(("unknown workload '" + a.workload + "'").c_str());
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Bytes the program holds in live heap allocations right now (glibc
/// mallinfo2: in-use arena chunks plus mmapped blocks), in MB.  Unlike RSS
/// it does not depend on how freed memory fragments across the per-thread
/// malloc arenas, which varies from run to run.
double live_heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Attempted operations (setups, refreshes, right-hand-side solves, bitwise
/// comparisons) and the ones that failed a gate.
struct Gates {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }

  /// converged, and ||b - A x|| / ||b|| <= tol computed here on the
  /// benchmark's own copy of A.
  bool check_solution(const la::CsrMatrix<double>& A,
                      const std::vector<double>& b,
                      const std::vector<double>& x, bool converged,
                      double tol, const char* what) {
    ++attempted;
    if (!converged) {
      fail(std::string(what) + ": converged=false");
      return false;
    }
    double bn = 0.0;
    for (double v : b) bn += v * v;
    const double rel = la::residual_norm(A, x, b) / std::sqrt(bn);
    if (!(rel <= tol)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: relative residual %.3e > tol %.1e",
                    what, rel, tol);
      fail(buf);
      return false;
    }
    return true;
  }
};

struct Metric {
  std::string name, unit;
  double value;
};

/// Right-hand sides of one solve unit with their solutions and reports.
struct Unit {
  std::vector<std::vector<double>> B, X;
  std::vector<SolveReport> reps;
  double seconds = 0.0;  ///< wall time of the solve / flush call alone
};

/// The right-hand sides of the next solve unit.
std::vector<std::vector<double>> next_unit_rhs(const Workload& w,
                                               perfbench::RhsStream& rhs) {
  std::vector<std::vector<double>> B;
  for (int c = 0; c < w.unit_width(); ++c) B.push_back(rhs.next());
  return B;
}

/// One solve unit through the facade: Solver::solve for the single-vector
/// path, one SolveSession flush of block_size right-hand sides otherwise.
Unit solve_unit(Solver& solver, const Workload& w,
                std::vector<std::vector<double>> B) {
  Unit u;
  u.B = std::move(B);
  if (w.path == perfbench::SolvePath::Single) {
    u.X.resize(1);
    const double t = now_s();
    u.reps.push_back(solver.solve(u.B[0], u.X[0]));
    u.seconds = now_s() - t;
    return u;
  }
  SolveSession session(solver);
  std::vector<size_t> tickets;
  for (const auto& b : u.B) tickets.push_back(session.enqueue(b));
  const double t = now_s();
  session.flush();
  u.seconds = now_s() - t;
  for (size_t tk : tickets) {
    u.X.push_back(session.solution(tk));
    u.reps.push_back(session.report(tk));
  }
  return u;
}

/// Verifies every right-hand side of a unit; returns how many passed.
int verify_unit(Gates& g, const Unit& u, const la::CsrMatrix<double>& A,
                double tol, const char* what) {
  int ok = 0;
  for (size_t c = 0; c < u.B.size(); ++c)
    ok += g.check_solution(A, u.B[c], u.X[c], u.reps[c].converged, tol, what);
  return ok;
}

/// The session gate: one sampled ticket of a session unit must equal a
/// solo Solver::solve of the same right-hand side, bit for bit.
void check_sampled_ticket(Gates& g, Solver& solver, const Unit& u,
                          std::uint64_t seed) {
  const size_t c = static_cast<size_t>(seed % u.B.size());
  std::vector<double> x;
  const SolveReport rep = solver.solve(u.B[c], x);
  ++g.attempted;
  if (rep.iterations != u.reps[c].iterations || !bitwise_equal(x, u.X[c]))
    g.fail("sampled SolveSession ticket differs from a solo Solver::solve");
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

std::vector<Metric> run_measured(const Args& a, const Workload& w, Gates& g) {
  const double tol = w.cfg.krylov.tol;
  perfbench::RhsStream rhs(a.seed, w.A.num_rows());
  // Every timed phase is followed by a host-speed probe (hostspeed.hpp);
  // the metrics are medians of normalized phase times.  The raw medians go
  // to standard error next to them.
  perfbench::SpeedProbe probe(static_cast<int>(w.cfg.threads));
  double last_probe = probe.run();
  auto timed = [&](auto&& fn) {
    perfbench::Phase p;
    const double t = now_s();
    fn();
    p.seconds = now_s() - t;
    const double after = probe.run();
    p.probe = 0.5 * (last_probe + after);
    last_probe = after;
    return p;
  };

  std::vector<double> setup_s, tts_s, solve_s, refresh_s, iterations, probes;
  std::vector<double> raw_setup_s, raw_solve_s, raw_refresh_s;
  double solve_seconds = 0.0;  // normalized, summed over solve units
  std::int64_t verified_rhs = 0;
  double heap_mb = 0.0;  // largest live heap seen after any operation
  auto sample_heap = [&]() { heap_mb = std::max(heap_mb, live_heap_mb()); };

  // One solve unit and the verification of its solutions, as one phase.
  // The solve or flush call alone is scaled by the same probes.
  auto run_unit = [&](Solver& solver, const la::CsrMatrix<double>& A,
                      const char* what, Unit& u) {
    const perfbench::Phase whole = timed([&]() {
      u = solve_unit(solver, w, next_unit_rhs(w, rhs));
      verified_rhs += verify_unit(g, u, A, tol, what);
    });
    sample_heap();
    const perfbench::Phase solve{u.seconds, whole.probe};
    const double width = static_cast<double>(u.B.size());
    solve_seconds += solve.normalized();
    solve_s.push_back(solve.normalized() / width);
    raw_solve_s.push_back(u.seconds / width);
    probes.push_back(whole.probe);
    for (const auto& r : u.reps)
      iterations.push_back(static_cast<double>(r.iterations));
    return whole;
  };

  const double t_start = now_s();
  do {
    Solver solver(w.cfg);
    ++g.attempted;
    const perfbench::Phase setup = timed([&]() { solver.setup(w.A, w.Z); });
    sample_heap();
    setup_s.push_back(setup.normalized());
    raw_setup_s.push_back(setup.seconds);
    probes.push_back(setup.probe);
    Unit first;
    const perfbench::Phase first_solution =
        run_unit(solver, w.A, "solve", first);
    tts_s.push_back(setup.normalized() + first_solution.normalized());
    if (w.path == perfbench::SolvePath::Session && setup_s.size() == 1)
      check_sampled_ticket(g, solver, first, a.seed);
    for (const auto& S : w.steps) {
      ++g.attempted;
      const perfbench::Phase refresh = timed([&]() { solver.refresh(S); });
      sample_heap();
      refresh_s.push_back(refresh.normalized());
      raw_refresh_s.push_back(refresh.seconds);
      probes.push_back(refresh.probe);
      Unit u;
      run_unit(solver, S, "solve after refresh", u);
      if (!u.reps.front().setup_reused)
        g.fail("refresh did not reuse the setup (setup_reused=false)");
    }
    std::fprintf(stderr, "cycle %zu: setup %.4f s (normalized %.4f s), "
                 "refresh %.4f s (normalized %.4f s), probe %.5f s\n",
                 setup_s.size(), setup.seconds, setup_s.back(),
                 raw_refresh_s.back(), refresh_s.back(), setup.probe);
  } while (now_s() - t_start < a.seconds);
  std::fprintf(stderr, "raw medians: setup %.4f s, solve %.4f s, refresh "
               "%.4f s; probe median %.5f s (reference %.5f s)\n",
               median(raw_setup_s), median(raw_solve_s), median(raw_refresh_s),
               median(probes), perfbench::SpeedProbe::kReferenceSeconds);

  const double pass =
      static_cast<double>(g.attempted - g.failed) /
      static_cast<double>(std::max<std::int64_t>(1, g.attempted));
  return {
      {"time_to_solution_s", "s", median(tts_s)},
      {"setup_s", "s", median(setup_s)},
      {"solve_s", "s", median(solve_s)},
      {"solves_per_s", "1/s",
       solve_seconds > 0.0 ? static_cast<double>(verified_rhs) / solve_seconds
                           : 0.0},
      {"refresh_s", "s", median(refresh_s)},
      {"iterations", "count", median(iterations)},
      {"pass_rate", "ratio", pass},
      {"live_heap_mb", "MB", heap_mb},
  };
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

double sum_h2d(const std::vector<device::TransferLedger>& v) {
  double s = 0.0;
  for (const auto& l : v) s += l.total.h2d_bytes;
  return s;
}

double sum_d2h(const std::vector<device::TransferLedger>& v) {
  double s = 0.0;
  for (const auto& l : v) s += l.total.d2h_bytes;
  return s;
}

double sum_msg_bytes(const std::vector<OpProfile>& v) {
  double s = 0.0;
  for (const auto& p : v) s += p.msg_bytes;
  return s;
}

/// Solutions and iteration counts of one traced solve unit.
struct Traced {
  std::vector<std::vector<double>> X;
  std::vector<index_t> iterations;
};

/// The facade's Krylov call re-issued from here with both callbacks
/// wrapped: krylov::make_krylov(cfg.krylov)->solve / solve_block on the
/// solver's own communicator and preconditioner, multiplying with `dA`.
Traced traced_solve(const Solver& solver, const la::DistCsrMatrix<double>& dA,
                    Tracer& tr, const Unit& u, bool block) {
  const SolverConfig& cfg = solver.config();
  krylov::DistCsrOperator<double> op(dA, *cfg.krylov.dist.comm,
                                     cfg.krylov.exec, cfg.overlap_comm);
  TimedOperator top(op, tr, "la.spmv");
  TimedOperator tprec(*solver.preconditioner(), tr, "dd.apply");
  auto kry = krylov::make_krylov<double>(cfg.krylov);
  Traced t;
  tr.new_request();
  Span s(tr, "krylov.solve");
  if (block) {
    auto br = kry->solve_block(top, &tprec, u.B, t.X);
    for (const auto& c : br.columns) t.iterations.push_back(c.iterations);
  } else {
    t.X.resize(1);
    t.iterations.push_back(kry->solve(top, &tprec, u.B[0], t.X[0]).iterations);
  }
  return t;
}

/// The same Krylov call as traced_solve with neither callback wrapped;
/// returns the wall seconds of the solve / solve_block call alone.
double untraced_krylov_s(const Solver& solver,
                         const la::DistCsrMatrix<double>& dA, const Unit& u,
                         bool block) {
  const SolverConfig& cfg = solver.config();
  krylov::DistCsrOperator<double> op(dA, *cfg.krylov.dist.comm,
                                     cfg.krylov.exec, cfg.overlap_comm);
  auto kry = krylov::make_krylov<double>(cfg.krylov);
  std::vector<std::vector<double>> X(block ? 0 : 1);
  const double t = now_s();
  if (block)
    kry->solve_block(op, solver.preconditioner(), u.B, X);
  else
    kry->solve(op, solver.preconditioner(), u.B[0], X[0]);
  return now_s() - t;
}

void check_traced(Gates& g, const Unit& ref, const Traced& traced) {
  ++g.attempted;
  bool same = traced.X.size() == ref.X.size();
  for (size_t c = 0; same && c < ref.X.size(); ++c)
    same = traced.iterations[c] == ref.reps[c].iterations &&
           bitwise_equal(traced.X[c], ref.X[c]);
  if (!same) g.fail("traced solve is not bitwise equal to the untraced one");
}

std::vector<Metric> run_traced(const Args& a, const Workload& w, Gates& g) {
  Tracer tr;
  const SolverConfig& cfg0 = w.cfg;
  const double tol = cfg0.krylov.tol;
  const bool block = w.path == perfbench::SolvePath::Session;
  const int traced_units = 2;
  perfbench::RhsStream rhs(a.seed, w.A.num_rows());

  // Cold setup, timed as a span; the facade's own symbolic/numeric clocks
  // become its two child spans once a solve report carries them.
  Solver solver(cfg0);
  tr.new_request();
  const int setup_span = tr.begin("solver.setup");
  ++g.attempted;
  solver.setup(w.A, w.Z);
  tr.end(setup_span);
  const double setup_end = tr.spans()[static_cast<size_t>(setup_span)].end_s;
  const double setup_s = tr.spans()[static_cast<size_t>(setup_span)].seconds();
  const SolverConfig& cfg = solver.config();

  // Untraced reference solves on the same solver.
  std::vector<Unit> ref;
  for (int k = 0; k < traced_units; ++k) {
    ref.push_back(solve_unit(solver, w, next_unit_rhs(w, rhs)));
    verify_unit(g, ref.back(), w.A, tol, "reference solve");
  }
  if (block) check_sampled_ticket(g, solver, ref.front(), a.seed);
  const SolveReport& rep = ref.front().reps.front();
  {
    // Nested under solver.setup: the facade times symbolic then numeric
    // back to back and returns right after; place them at the span's end.
    const double num_start = setup_end - rep.wall_numeric_s;
    tr.add_complete("dd.numeric", num_start, setup_end, setup_span);
    tr.add_complete("dd.symbolic", num_start - rep.wall_symbolic_s, num_start,
                    setup_span);
  }

  // Setup-side layer replays on the same inputs.
  tr.new_request();
  const int replay_span = tr.begin("replay");
  IndexVector owner;
  dd::Decomposition decomp;
  {
    Span s(tr, "graph.partition");
    owner = graph::recursive_bisection(graph::build_graph(w.A), cfg.num_parts);
  }
  {
    Span s(tr, "dd.decomposition");
    decomp = dd::build_decomposition(w.A, owner, cfg.num_parts,
                                     cfg.schwarz.overlap);
  }
  ++g.attempted;
  if (decomp.owner != solver.decomposition().owner ||
      decomp.overlap_dofs != solver.decomposition().overlap_dofs)
    g.fail("replayed partition/decomposition differs from the facade's");
  // The replayed sharded matrix is the one the traced operator multiplies
  // with; dA points into plan, which outlives it.
  const comm::Communicator& comm = *solver.communicator();
  la::HaloPlan plan;
  la::DistCsrMatrix<double> dA;
  {
    Span s(tr, "la.halo_plan");
    IndexVector rank_of(owner.size());
    for (size_t i = 0; i < owner.size(); ++i)
      rank_of[i] = comm.block_owner(decomp.num_parts, owner[i]);
    plan = la::build_halo_plan(w.A, rank_of, comm.size());
    dA.build(w.A, plan, cfg.krylov.exec);
  }

  // Local solver replay: the workload's subdomain config on every part's
  // overlapping matrix, run serially with no device arena attached.
  const bool ilu = cfg.schwarz.subdomain.kind == dd::LocalSolverKind::Iluk ||
                   cfg.schwarz.subdomain.kind == dd::LocalSolverKind::FastIlu;
  const std::string fam = ilu ? "ilu" : "direct";
  double factor_nnz = 0.0;
  {
    dd::LocalSolverConfig scfg = cfg.schwarz.subdomain;
    scfg.exec = exec::ExecPolicy::serial();
    perfbench::Rng rr(a.seed + 17);
    for (index_t p = 0; p < decomp.num_parts; ++p) {
      const auto& dofs = decomp.overlap_dofs[static_cast<size_t>(p)];
      auto sub = la::extract_submatrix(w.A, dofs, dofs);
      dd::LocalSolver<double> ls(scfg);
      {
        Span s(tr, fam + ".symbolic");
        ls.symbolic(sub);
      }
      {
        Span s(tr, fam + ".numeric");
        ls.numeric(sub);
      }
      factor_nnz += static_cast<double>(ls.factor_nnz());
      std::vector<double> r(dofs.size()), y;
      for (auto& v : r) v = rr.uniform(-1.0, 1.0);
      Span s(tr, "trisolve.solve");
      ls.solve(r, y);
    }
  }
  tr.end(replay_span);

  // Traced solves of the reference right-hand sides, checked bitwise, each
  // paired with the same Krylov call unwrapped (alternating which goes
  // first): the two differ only by the wrappers, and their ratio is
  // tracing.overhead.
  double rhs_count = 0.0, untraced_s = 0.0;
  for (size_t k = 0; k < ref.size(); ++k) {
    const Unit& u = ref[k];
    if (k % 2 == 1) untraced_s += untraced_krylov_s(solver, dA, u, block);
    check_traced(g, u, traced_solve(solver, dA, tr, u, block));
    if (k % 2 == 0) untraced_s += untraced_krylov_s(solver, dA, u, block);
    rhs_count += static_cast<double>(u.B.size());
  }
  const double traced_s = tr.total("krylov.solve");
  const double apply_s = tr.total("dd.apply");
  const double apply_calls = static_cast<double>(tr.count("dd.apply"));
  const double spmv_s = tr.total("la.spmv");
  const double spmv_calls = static_cast<double>(tr.count("la.spmv"));
  const double krylov_self_s = tr.self("krylov.solve");

  // Refresh to the first step matrix: untraced reference, then traced.
  const la::CsrMatrix<double>& S = w.steps.front();
  tr.new_request();
  ++g.attempted;
  {
    Span s(tr, "solver.refresh");
    solver.refresh(S);
  }
  Unit after = solve_unit(solver, w, next_unit_rhs(w, rhs));
  verify_unit(g, after, S, tol, "solve after refresh");
  const SolveReport& rrep = after.reps.front();
  if (!rrep.setup_reused)
    g.fail("refresh did not reuse the setup (setup_reused=false)");
  dA.refresh_values(S, cfg.krylov.exec);
  check_traced(g, after, traced_solve(solver, dA, tr, after, block));

  // exec.apply_speedup: the same solves on an identical threads=1 solver.
  double speedup = 1.0;
  if (cfg0.threads > 1) {
    SolverConfig c1 = cfg0;
    c1.threads = 1;
    Solver serial(c1);
    ++g.attempted;
    serial.setup(w.A, w.Z);
    la::DistCsrMatrix<double> dA1(w.A, serial.halo_plan(),
                                  serial.config().krylov.exec);
    const double before = tr.total("dd.apply");
    for (const auto& u : ref)
      check_traced(g, u, traced_solve(serial, dA1, tr, u, block));
    speedup = (tr.total("dd.apply") - before) / apply_s;
  }

  // Model comparison: perf::model_times on an ExperimentResult filled from
  // the first reference unit's report (one virtual rank per GPU, no MPS
  // sharing, for the GPU rows).
  perf::ExperimentResult er;
  er.n = w.A.num_rows();
  er.ranks = rep.ranks;
  er.converged = rep.converged;
  er.iterations = rep.iterations;
  er.coarse_dim = rep.coarse_dim;
  er.schwarz = rep.schwarz;
  er.krylov = rep.krylov;
  er.rank_krylov = rep.rank_krylov;
  er.rank_setup_comm = rep.rank_setup_comm;
  er.setup_transfers = rep.rank_setup_transfers;
  er.solve_transfers = rep.rank_transfers;
  er.solve_imbalance = rep.solve_imbalance;
  er.wall_setup_s = rep.wall_symbolic_s + rep.wall_numeric_s;
  er.wall_solve_s = ref.front().seconds;
  const bool lu_on_cpu =
      cfg.schwarz.subdomain.kind == dd::LocalSolverKind::SuperLULike;
  const perf::SummitModel model;
  const auto cpu = perf::model_times(er, model, perf::Execution::CpuCores, 1,
                                     lu_on_cpu);
  const auto gpu =
      perf::model_times(er, model, perf::Execution::Gpu, 1, lu_on_cpu);

  // Per-iteration comm counters over the first reference unit (block units
  // iterate in lockstep: the slowest column sets the count).
  index_t iters = 0;
  for (const auto& r : ref.front().reps) iters = std::max(iters, r.iterations);
  const double it = static_cast<double>(std::max<index_t>(1, iters));
  double msgs = 0.0, sub_red = 0.0, overlap_s = 0.0;
  for (const auto& p : rep.rank_krylov) {
    msgs += static_cast<double>(p.neighbor_msgs);
    sub_red += static_cast<double>(p.sub_reductions);
  }
  for (double v : rep.rank_overlap) overlap_s += v;
  double l2 = rep.coarse_dim, l3 = 0.0;
  for (const auto& lv : rep.schwarz.coarse_levels) {
    if (lv.level == 2) l2 = lv.dim;
    if (lv.level == 3) l3 = lv.dim;
  }
  OpProfile apply_work;
  for (const auto& phase : rep.schwarz.ranks) apply_work += phase.solve;
  apply_work += rep.schwarz.coarse.solve;
  const double applies =
      static_cast<double>(std::max<count_t>(1, rep.schwarz.apply_count));

  const double layers = tr.total("graph.partition") +
                        tr.total("dd.decomposition") +
                        tr.total("la.halo_plan") + rep.wall_symbolic_s +
                        rep.wall_numeric_s;

  if (!a.trace_out.empty() && !tr.write_chrome_json(a.trace_out))
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 a.trace_out.c_str());

  auto layer = [&](const std::string& f, const std::string& name) {
    return fam == f ? tr.total(f + "." + name) : 0.0;
  };
  return {
      {"graph.partition_s", "s", tr.total("graph.partition")},
      {"dd.decomposition_s", "s", tr.total("dd.decomposition")},
      {"la.halo_plan_s", "s", tr.total("la.halo_plan")},
      {"dd.symbolic_s", "s", rep.wall_symbolic_s},
      {"dd.numeric_s", "s", rep.wall_numeric_s},
      {"direct.symbolic_s", "s", layer("direct", "symbolic")},
      {"direct.numeric_s", "s", layer("direct", "numeric")},
      {"direct.factor_nnz", "count", fam == "direct" ? factor_nnz : 0.0},
      {"ilu.symbolic_s", "s", layer("ilu", "symbolic")},
      {"ilu.numeric_s", "s", layer("ilu", "numeric")},
      {"ilu.factor_nnz", "count", fam == "ilu" ? factor_nnz : 0.0},
      {"trisolve.solve_s", "s", tr.total("trisolve.solve")},
      {"dd.apply_s", "s", apply_s / rhs_count},
      {"dd.apply_calls", "count", apply_calls / rhs_count},
      {"dd.apply_flops", "flop", apply_work.flops / applies},
      {"dd.apply_bytes", "B", apply_work.bytes / applies},
      {"la.spmv_s", "s", spmv_s / rhs_count},
      {"la.spmv_calls", "count", spmv_calls / rhs_count},
      {"krylov.self_s", "s", krylov_self_s / rhs_count},
      {"krylov.reductions_per_iter", "count",
       static_cast<double>(rep.krylov.reductions) / it},
      {"comm.msgs_per_iter", "count", msgs / it},
      {"comm.bytes_per_iter", "B", sum_msg_bytes(rep.rank_krylov) / it},
      {"comm.setup_bytes", "B", sum_msg_bytes(rep.rank_setup_comm)},
      {"comm.refresh_bytes", "B", sum_msg_bytes(rrep.rank_refresh_comm)},
      {"comm.overlap_s", "s", overlap_s},
      {"mlevel.coarse_dim.l2", "count", l2},
      {"mlevel.coarse_dim.l3", "count", l3},
      {"mlevel.coarse_comm_bytes", "B", rep.schwarz.coarse_comm_bytes},
      {"mlevel.sub_reductions", "count", sub_red},
      {"exec.apply_speedup", "ratio", speedup},
      {"device.setup_h2d_bytes", "B", sum_h2d(rep.rank_setup_transfers)},
      {"device.solve_h2d_bytes", "B", sum_h2d(rep.rank_transfers)},
      {"device.solve_d2h_bytes", "B", sum_d2h(rep.rank_transfers)},
      {"device.refresh_h2d_bytes", "B", sum_h2d(rrep.rank_refresh_transfers)},
      {"perf.model_cpu_setup_s", "s", cpu.setup},
      {"perf.model_cpu_solve_s", "s", cpu.solve},
      {"perf.model_gpu_setup_s", "s", gpu.setup},
      {"perf.model_gpu_solve_s", "s", gpu.solve},
      {"perf.setup_measured_over_model", "ratio", setup_s / cpu.setup},
      {"perf.solve_measured_over_model", "ratio",
       ref.front().seconds / cpu.solve},
      {"solver.setup_unattributed_s", "s", setup_s - layers},
      {"solver.refresh_reused", "ratio", rrep.setup_reused ? 1.0 : 0.0},
      {"tracing.overhead", "ratio", traced_s / untraced_s},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
}

void print_result(const Gates& g, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              g.failed == 0 && g.attempted > 0 ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(1, g.attempted)),
              static_cast<long long>(g.failed));
  for (size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Gates g;
  std::vector<Metric> metrics;
  try {
    const Workload w = perfbench::make_workload(a.workload, a.seed, a.smoke);
    std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"input_hash\": \"%016llx\", \"dofs\": %d, \"trace\": %d}}\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(
                    perfbench::input_hash(w, a.seed, 4 * w.unit_width())),
                static_cast<int>(w.A.num_rows()), a.trace);
    metrics = a.trace ? run_traced(a, w, g) : run_measured(a, w, g);
  } catch (const std::exception& e) {
    ++g.attempted;
    g.fail(std::string("exception: ") + e.what());
  }
  print_result(g, metrics);
  return g.failed == 0 ? 0 : 1;
}

// Seeded input generators for the benchmark workloads.
//
// Everything a workload sends to the program is generated here from the
// workload seed: expression text, Zipf popularity draws, per-request
// strategies and the service session/time-step schedule. The program only
// ever receives the generated text and arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/strategy.hpp"

namespace dfbench {

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n);
  /// Uniform in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// expr_churn's expression set: `count` distinct derived-field scripts.
/// Rank r uses template class r % kChurnClasses, so every seed produces the
/// same mix of shapes (and so of cost) at each popularity rank; the seed
/// picks fields, gradient components, operators and constants, and no two
/// expressions compile to the same kernel. The grammar combines CFD
/// builtins, grad3d components, arithmetic, conditionals and constants,
/// never takes a gradient of a computed value (the streamed strategy
/// cannot), only takes sqrt of sums of squares plus a positive constant and
/// only divides by abs(.) + c with c >= 1, so every strategy runs every
/// expression without fallback or NaN.
inline constexpr std::size_t kChurnClasses = 8;
std::vector<std::string> churn_expressions(std::uint64_t seed,
                                           std::size_t count);

/// expr_churn's strategies, fusion first.
inline constexpr dfg::runtime::StrategyKind kChurnStrategies[] = {
    dfg::runtime::StrategyKind::fusion, dfg::runtime::StrategyKind::staged,
    dfg::runtime::StrategyKind::roundtrip,
    dfg::runtime::StrategyKind::streamed};

/// expr_churn's per-request strategy, as an index into kChurnStrategies:
/// fusion 55%, staged 15%, roundtrip 15%, streamed 15%.
std::size_t draw_strategy(Rng& rng);

/// service_mix's twelve detectors: four tails on each of three shared
/// subtrees (enstrophy, vorticity magnitude, Q-criterion), so the memo
/// layer can serve the shared subtree across different networks.
std::vector<std::string> service_detectors();

/// One service_mix request: detector index and session index.
struct ServiceDraw {
  std::size_t detector = 0;
  std::size_t session = 0;
};

/// service_mix schedule parameters.
inline constexpr std::size_t kServiceSessions = 3;
inline constexpr std::size_t kServiceInFlight = 8;
/// Requests between two time steps (a multiple of kServiceInFlight, so a
/// step always falls on a wave boundary).
inline constexpr std::size_t kServiceStepEvery = 48;

}  // namespace dfbench

#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace dfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

double Rng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Zipf::Zipf(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

namespace {

const char* const kFields[] = {"u", "v", "w"};
// None of these equals a constant the CFD builtins use internally, and an
// expression never uses one twice: constant deduplication would otherwise
// change the node count with the seed.
const char* const kConstants[] = {"0.25", "0.75", "1.5", "2.5", "3.5", "4.0"};
// Divisor offsets: abs(.) + c with c >= 1 never divides by zero.
const char* const kOffsets[] = {"1.25", "1.75", "2.25"};
const char* const kAddOps[] = {"+", "-"};
const char* const kCmpOps[] = {">", "<"};
const char* const kComponents[] = {"0", "1", "2"};

template <std::size_t N>
std::string pick(Rng& rng, const char* const (&options)[N]) {
  return options[rng.below(N)];
}

/// `count` distinct options in random order. Choices that could coincide
/// (two fields, two components, two constants) are always distinct, so
/// every seed gives each template class the same network shape and cost.
template <std::size_t N>
std::vector<std::string> distinct(Rng& rng, const char* const (&options)[N],
                                  std::size_t count) {
  std::vector<std::string> pool(std::begin(options), std::end(options));
  std::vector<std::string> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = rng.below(pool.size());
    out.push_back(pool[j]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return out;
}

std::string grad(const std::string& field) {
  return "grad3d(" + field + ", dims, x, y, z)";
}

const std::string kVelocityArgs = "(u, v, w, dims, x, y, z)";

/// One expression of template class `cls`; `out` names its output.
std::string churn_body(std::size_t cls, Rng& rng, const std::string& out) {
  const std::vector<std::string> f = distinct(rng, kFields, 3);
  const std::vector<std::string> k = distinct(rng, kConstants, 3);
  const std::vector<std::string> c = distinct(rng, kComponents, 2);
  switch (cls) {
    case 0:  // arithmetic over fields
      return out + " = sqrt(" + f[0] + "*" + f[0] + " + " + f[1] + "*" +
             f[1] + " + " + k[0] + ") * " + k[1] + " " + pick(rng, kAddOps) +
             " " + f[2];
    case 1:  // gradient components
      return "g = " + grad(f[0]) + "\n" + out + " = g[" + c[0] + "] * " +
             k[0] + " " + pick(rng, kAddOps) + " g[" + c[1] + "]";
    case 2:  // curl-norm builtin
      return "e = enstrophy" + kVelocityArgs + "\n" + out + " = e * " + k[0] +
             " " + pick(rng, kAddOps) + " " + f[0];
    case 3:  // conditional on a curl component
      return "c = curl" + kVelocityArgs + "[" + c[0] + "]\n" + out +
             " = if (c " + pick(rng, kCmpOps) + " " + k[0] + ") then (c * " +
             f[0] + ") else (" + f[1] + " - " + k[1] + ")";
    case 4:  // cross terms of two gradients
      return "a = " + grad(f[0]) + "\nb = " + grad(f[1]) + "\n" + out +
             " = (a[" + c[0] + "]*b[" + c[1] + "] - a[" + c[1] + "]*b[" +
             c[0] + "]) * " + k[0];
    case 5:  // speed conditional with a guarded division
      return "m = sqrt(u*u + v*v + w*w)\n" + out + " = if (m " +
             pick(rng, kCmpOps) + " " + k[0] + ") then (m * " + k[1] +
             ") else (" + f[0] + " / (abs(" + f[1] + ") + " +
             pick(rng, kOffsets) + "))";
    case 6:  // clamped Q-criterion
      return "q = qcriterion" + kVelocityArgs + "\n" + out + " = " +
             (rng.below(2) == 0 ? "max" : "min") + "(q, " + k[0] + ") * " +
             k[1];
    default:  // helicity against divergence
      return "h = helicity" + kVelocityArgs + "\nd = divergence" +
             kVelocityArgs + "\n" + out + " = h " + pick(rng, kAddOps) +
             " d * " + k[0];
  }
}

}  // namespace

std::vector<std::string> churn_expressions(std::uint64_t seed,
                                           std::size_t count) {
  Rng rng(seed ^ 0xC0FFEEull);
  std::vector<std::string> out;
  std::set<std::string> kernels;
  out.reserve(count);
  for (std::size_t rank = 0; rank < count; ++rank) {
    // Bound fields are kernel arguments: expressions that differ only in
    // field names compile to one kernel, and the later one would skip its
    // jit compile. Redraw until the field-blind text is new.
    std::string body, key;
    do {
      body = churn_body(rank % kChurnClasses, rng, "out");
      key = body;
      std::replace_if(
          key.begin(), key.end(),
          [](char ch) { return ch == 'u' || ch == 'v' || ch == 'w'; }, 'F');
    } while (!kernels.insert(key).second);
    // Rename the output (the last statement) to its rank.
    const std::size_t last = body.rfind("out = ");
    out.push_back(body.substr(0, last) + "r" + std::to_string(rank) +
                  body.substr(last + 3));
  }
  return out;
}

std::size_t draw_strategy(Rng& rng) {
  const double u = rng.unit();
  if (u < 0.55) return 0;
  if (u < 0.70) return 1;
  if (u < 0.85) return 2;
  return 3;
}

std::vector<std::string> service_detectors() {
  const std::string ens =
      "wx = grad3d(w, dims, x, y, z)[1] - grad3d(v, dims, x, y, z)[2]\n"
      "wy = grad3d(u, dims, x, y, z)[2] - grad3d(w, dims, x, y, z)[0]\n"
      "wz = grad3d(v, dims, x, y, z)[0] - grad3d(u, dims, x, y, z)[1]\n"
      "ens = wx*wx + wy*wy + wz*wz\n";
  const std::string vort = "vm = vorticity_mag(u, v, w, dims, x, y, z)\n";
  const std::string q = "q = qcriterion(u, v, w, dims, x, y, z)\n";
  return {
      ens + "r = sqrt(ens)",
      ens + "r = ens * 0.5",
      ens + "r = sqrt(ens) + u",
      ens + "r = ens * 0.5 - w",
      vort + "r = vm * 2.0",
      vort + "r = vm + v",
      vort + "r = if (vm > 1.0) then (vm) else (0.5 * vm)",
      vort + "r = vm * vm - u",
      q + "r = q * 0.5",
      q + "r = q + w",
      q + "r = if (q > 0.25) then (q) else (-q)",
      q + "r = q * q",
  };
}

}  // namespace dfbench

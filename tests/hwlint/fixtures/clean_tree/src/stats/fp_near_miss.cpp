// Near-misses for the fp-determinism pass: sqrt is exempt (IEEE 754
// requires correct rounding), integer comparisons next to double locals
// are fine, accumulation over an *ordered* container is fine, a
// qualified function definition registers no fp name (`Json` below is
// a class, so `depth == Json::kMax` compares integers), and a
// justified inline suppression silences a pow call.
#include <cmath>
#include <map>

namespace fixture::stats {

std::map<int, double> ordered_samples;

double rms(double acc, long n) {
  if (n == 0) {
    return 0.0;
  }
  return std::sqrt(acc / static_cast<double>(n));
}

double total() {
  double sum = 0;
  for (const auto& [k, v] : ordered_samples) {
    sum += v;
  }
  return sum;
}

struct Json {
  static constexpr int kMax = 256;
  double as_double() const;
};

double Json::as_double() const { return 0.0; }

bool at_cap(int depth) { return depth == Json::kMax; }

// Distribution shape needs pow; reference platform is x86-64/glibc.
double shaped(double base) {
  return std::pow(base, 1.5);  // hwlint: allow(fp-determinism)
}

}  // namespace fixture::stats

// Future-work ablation: direct O(N²) Coulomb (the paper's implementation)
// versus smooth particle-mesh Ewald O(N log N) (the paper's proposed future
// work), measured natively on the host as the ion count scales.
//
// The expected shape: direct wins below a few hundred ions (MW's regime —
// which is why the authors deferred PME), PME wins beyond the crossover and
// the gap widens as N grows.
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "md/ewald/pme.hpp"

namespace {

double seconds_of(const std::function<void()>& fn, int repeats) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() / repeats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mwx;
  using namespace mwx::md::ewald;
  const int max_n = argc > 1 ? std::atoi(argv[1]) : 16384;

  std::cout << "Direct O(N^2) Coulomb vs smooth PME O(N log N) — native timings\n\n";

  Table table({"Ions", "Direct ms", "PME ms", "PME/Direct", "Winner"});
  Rng rng(21);
  for (int n = 128; n <= max_n; n *= 2) {
    // Neutral random ionic gas at roughly molten-salt density.
    const double side = std::cbrt(n / 0.02);
    const Vec3 box{side, side, side};
    std::vector<Vec3> pos;
    std::vector<double> q;
    pos.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      pos.push_back(rng.point_in_box({0, 0, 0}, box));
      q.push_back(i % 2 == 0 ? 1.0 : -1.0);
    }

    const EwaldParams params = suggest_params(box, n);
    PmeSolver pme(box, params);
    const int repeats = n <= 1024 ? 10 : (n <= 4096 ? 3 : 1);
    const double t_direct =
        seconds_of([&] { direct_coulomb_minimum_image(box, pos, q); }, repeats);
    const double t_pme = seconds_of([&] { (void)pme.compute(pos, q); }, repeats);
    table.row(n, Table::fixed(t_direct * 1e3, 2), Table::fixed(t_pme * 1e3, 2),
              Table::fixed(t_pme / t_direct, 2), t_pme < t_direct ? "PME" : "direct");
  }
  table.print(std::cout);
  std::cout << "\n(MW's benchmarks have <= 800 charged atoms — near or below the\n"
               "crossover, consistent with the paper deferring PME as future work)\n";
  return 0;
}

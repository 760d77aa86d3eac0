#include "topo/cpuset.hpp"

#include <sstream>

namespace mwx::topo {

std::string CpuSet::to_string() const {
  std::ostringstream os;
  bool first_range = true;
  int i = first();
  while (i >= 0) {
    int j = i;
    while (test(j + 1)) ++j;
    if (!first_range) os << ',';
    first_range = false;
    if (j == i) {
      os << i;
    } else {
      os << i << '-' << j;
    }
    i = next(j);
  }
  if (first_range) os << "(empty)";
  return os.str();
}

void CpuSet::out_of_range(int pu) {
  throw ContractError("pu index " + std::to_string(pu) + " out of range [0, " +
                      std::to_string(kMaxPus) + ")");
}

}  // namespace mwx::topo

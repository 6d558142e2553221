#include "qn/network.h"

#include <cmath>

namespace carat::qn {

std::size_t ClosedNetwork::AddCenter(std::string name, CenterKind kind) {
  centers.push_back(Center{std::move(name), kind});
  for (Chain& chain : chains) chain.demands.resize(centers.size(), 0.0);
  return centers.size() - 1;
}

std::size_t ClosedNetwork::AddChain(std::string name, int population,
                                    double think_time) {
  Chain chain;
  chain.name = std::move(name);
  chain.population = population;
  chain.think_time = think_time;
  chain.demands.assign(centers.size(), 0.0);
  chains.push_back(std::move(chain));
  return chains.size() - 1;
}

bool ClosedNetwork::Validate(std::string* error) const {
  auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (const Chain& chain : chains) {
    if (chain.population < 0) return fail("negative population");
    if (!std::isfinite(chain.think_time) || chain.think_time < 0)
      return fail("negative or non-finite think time");
    if (chain.demands.size() != centers.size())
      return fail("demand vector size mismatch");
    for (double d : chain.demands)
      if (!std::isfinite(d) || d < 0)
        return fail("negative or non-finite demand");
  }
  return true;
}

}  // namespace carat::qn

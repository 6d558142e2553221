#include "lock/lock_manager_set.h"

namespace carat::lock {

LockManagerSet::LockManagerSet(sim::Kernel& kernel) {
  sites_.reserve(static_cast<std::size_t>(kernel.num_sites()));
  for (int s = 0; s < kernel.num_sites(); ++s) {
    sites_.push_back(
        std::make_unique<LockManager>(sim::SitePort{&kernel, s}));
  }
}

void LockManagerSet::set_victim_policy(VictimPolicy policy) {
  for (auto& lm : sites_) lm->set_victim_policy(policy);
}

std::uint64_t LockManagerSet::requests() const {
  std::uint64_t total = 0;
  for (const auto& lm : sites_) total += lm->requests();
  return total;
}

std::uint64_t LockManagerSet::blocks() const {
  std::uint64_t total = 0;
  for (const auto& lm : sites_) total += lm->blocks();
  return total;
}

std::uint64_t LockManagerSet::local_deadlocks() const {
  std::uint64_t total = 0;
  for (const auto& lm : sites_) total += lm->local_deadlocks();
  return total;
}

std::uint64_t LockManagerSet::cancelled_waits() const {
  std::uint64_t total = 0;
  for (const auto& lm : sites_) total += lm->cancelled_waits();
  return total;
}

std::uint64_t LockManagerSet::conflict_aborts() const {
  std::uint64_t total = 0;
  for (const auto& lm : sites_) total += lm->conflict_aborts();
  return total;
}

std::size_t LockManagerSet::TotalHeld() const {
  std::size_t total = 0;
  for (const auto& lm : sites_) total += lm->TotalHeld();
  return total;
}

void LockManagerSet::ResetStats() {
  for (auto& lm : sites_) lm->ResetStats();
}

}  // namespace carat::lock

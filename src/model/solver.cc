#include "model/solver.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "cc/cc.h"
#include "model/cc_submodel.h"
#include "model/demands.h"
#include "model/lock_model.h"
#include "model/phases.h"
#include "model/transition.h"
#include "model/yao.h"
#include "qn/mva.h"
#include "qn/network.h"

namespace carat::model {

namespace {

// Mutable per-(site, type) iteration state.
struct ClassState {
  bool present = false;
  double q = 0.0;        // granule accesses (I/O bursts) per request
  double lock_ratio = 1.0;  // distinct locks / total accesses (re-access
                            // never blocks, so Pb applies to this share)
  double nlk = 0.0;    // lock requests per execution (Eq. 2)
  double pb = 0.0;     // blocking probability per lock request
  double pd = 0.0;     // deadlock-victim probability per block
  double pra = 0.0;    // abort probability per remote-wait visit
  double sigma = 1.0;  // abort progress fraction
  double pa = 0.0;     // per-submission abort probability
  double ns = 1.0;     // submissions per commit
  double plw = 0.0;    // blocks at least once per execution
  double lh = 0.0;     // time-average locks held
  double rs = 0.0;     // successful-execution duration
  double rexec = 0.0;  // mean execution duration (success/abort mix)
  PhaseDelays delays;  // r_lw / r_rw / r_cwc / r_cwa
  VisitCounts visits{};
  ClassDemands demands;
  double x = 0.0;      // throughput, commits per ms
  double r = 0.0;      // per-commit response (excl. Z), ms
};

struct SiteState {
  std::array<ClassState, kNumTxnTypes> cls;
  double cpu_util = 0.0;
  double db_util = 0.0;
  double log_util = 0.0;
  // Mean queue lengths from the site MVA, used to approximate the queueing
  // experienced by commit/abort message processing (arrival theorem).
  double cpu_q = 0.0;
  double db_q = 0.0;
  double log_q = 0.0;
};

// Per-site MVA network of one solve unit, built once per shape and updated
// in place each fixed-point iteration (only the chain demands change). Its
// MVA workspace is the unit's qn::MvaWorkspace in the arena.
struct SiteNetwork {
  qn::ClosedNetwork net;
  std::size_t cpu = 0, disk = 0, log_disk = 0;
  std::size_t lw = 0, rw = 0, cw = 0, ut = 0;
  std::vector<TxnType> chain_types;
  double buffer_hit_prob = 0.0;
};

// ---- Site classes (hierarchical solving, DESIGN.md §14). -------------------
// Byte-identical sites (every solve-relevant parameter equal; the display
// name is excluded) form one class. The coupling sums below iterate over
// classes with multiplicities instead of over peer sites, which keeps the
// coupling state O(classes) instead of the old O(sites^2) lists and — when
// collapsing — makes a whole fixed-point iteration O(classes).

// Calls f(a.x, b.x) for every SiteParams field the solver reads (the
// display name is excluded). Two sites are replicas exactly when every pair
// holds the same bits.
template <class F>
void ForEachSolverField(const SiteParams& a, const SiteParams& b, F&& f) {
  f(a.num_granules, b.num_granules);
  f(a.records_per_granule, b.records_per_granule);
  f(a.block_io_ms, b.block_io_ms);
  f(a.separate_log_disk, b.separate_log_disk);
  f(a.think_time_ms, b.think_time_ms);
  f(a.hot_data_fraction, b.hot_data_fraction);
  f(a.hot_access_fraction, b.hot_access_fraction);
  f(a.buffer_blocks, b.buffer_blocks);
  f(a.dm_pool_size, b.dm_pool_size);
  for (std::size_t k = 0; k < a.classes.size(); ++k) {
    const ClassParams& x = a.classes[k];
    const ClassParams& y = b.classes[k];
    f(x.population, y.population);
    f(x.local_requests, y.local_requests);
    f(x.remote_requests, y.remote_requests);
    f(x.records_per_request, y.records_per_request);
    f(x.u_cpu_ms, y.u_cpu_ms);
    f(x.tm_cpu_ms, y.tm_cpu_ms);
    f(x.dm_cpu_ms, y.dm_cpu_ms);
    f(x.lr_cpu_ms, y.lr_cpu_ms);
    f(x.dmio_cpu_ms, y.dmio_cpu_ms);
    f(x.dmio_disk_ms, y.dmio_disk_ms);
    f(x.dmio_read_ios, y.dmio_read_ios);
    f(x.dmio_write_ios, y.dmio_write_ios);
    f(x.init_cpu_ms, y.init_cpu_ms);
    f(x.tc_cpu_ms, y.tc_cpu_ms);
    f(x.tcio_force_writes, y.tcio_force_writes);
    f(x.ta_fixed_cpu_ms, y.ta_fixed_cpu_ms);
    f(x.ta_cpu_per_granule_ms, y.ta_cpu_per_granule_ms);
    f(x.taio_ios_per_granule, y.taio_ios_per_granule);
    f(x.unlock_cpu_per_lock_ms, y.unlock_cpu_per_lock_ms);
  }
}

// A field's bits: a double's representation, an integer's value.
template <class T>
std::uint64_t FieldBits(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<std::uint64_t>(static_cast<double>(v));
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

bool SameSolverFields(const SiteParams& a, const SiteParams& b) {
  bool same = true;
  ForEachSolverField(a, b, [&](auto x, auto y) {
    same = same && FieldBits(x) == FieldBits(y);
  });
  return same;
}

// FNV-1a over the field bits, one field per step. It only prefilters
// SameSolverFields, which decides, so its spread is all that matters.
std::uint64_t SolverFieldHash(const SiteParams& site) {
  std::uint64_t h = 1469598103934665603ull;
  ForEachSolverField(site, site, [&](auto x, auto) {
    h = (h ^ FieldBits(x)) * 1099511628211ull;
  });
  return h;
}

// One site-class partition. Class ids are dense and ordered by first
// occurrence, so on an input of pairwise-distinct sites class k IS site k.
// Every vector keeps its capacity across solves: re-partitioning a same-size
// input allocates nothing warm.
struct ClassPartition {
  std::vector<std::size_t> class_of_site;  // site -> class
  std::vector<std::size_t> rep_site;       // class -> first member
  std::vector<double> class_count;         // class -> member count
  std::vector<std::uint64_t> hashes;       // class -> field hash (prefilter)
  // Spec renumbering scratch: (raw id, dense id) pairs, scanned linearly.
  std::vector<std::pair<std::size_t, std::size_t>> id_map;

  std::size_t num_classes() const { return rep_site.size(); }

  void Clear(std::size_t num_sites) {
    class_of_site.clear();
    class_of_site.reserve(num_sites);
    rep_site.clear();
    class_count.clear();
    hashes.clear();
  }
  // Registers site i as the representative of a new class.
  std::size_t AddClass(std::size_t i, std::uint64_t hash) {
    const std::size_t cls = rep_site.size();
    hashes.push_back(hash);
    rep_site.push_back(i);
    class_count.push_back(0.0);
    return cls;
  }
};

void DetectClasses(const ModelInput& input, ClassPartition* part) {
  part->Clear(input.sites.size());
  for (std::size_t i = 0; i < input.sites.size(); ++i) {
    const std::uint64_t h = SolverFieldHash(input.sites[i]);
    std::size_t cls = part->num_classes();
    for (std::size_t k = 0; k < part->num_classes(); ++k) {
      if (part->hashes[k] == h &&
          SameSolverFields(input.sites[part->rep_site[k]], input.sites[i])) {
        cls = k;
        break;
      }
    }
    if (cls == part->num_classes()) cls = part->AddClass(i, h);
    part->class_of_site.push_back(cls);
    part->class_count[cls] += 1.0;
  }
}

// Chain-presence/layout equality between two sites: the coupling topology
// and the network shape read exactly these bits, so a caller-provided class
// must be uniform in them (other parameter differences are an approximation
// the caller opted into; see SiteClassSpec).
bool SamePresence(const SiteParams& a, const SiteParams& b) {
  if (a.separate_log_disk != b.separate_log_disk) return false;
  for (TxnType t : kAllTxnTypes) {
    if ((a.Class(t).population > 0) != (b.Class(t).population > 0)) {
      return false;
    }
  }
  return true;
}

// Adopts a caller-provided partition: renumbers class ids by first
// occurrence and validates presence/layout uniformity. Returns false with
// *error set on a malformed spec.
bool ApplySiteClassSpec(const ModelInput& input, const SiteClassSpec& spec,
                        ClassPartition* part, std::string* error) {
  if (spec.class_of_site.size() != input.sites.size()) {
    *error = "site_classes size does not match the site count";
    return false;
  }
  part->Clear(input.sites.size());
  part->id_map.clear();
  for (std::size_t i = 0; i < input.sites.size(); ++i) {
    const std::size_t raw = spec.class_of_site[i];
    std::size_t cls = part->num_classes();
    for (const auto& [known_raw, dense] : part->id_map) {
      if (known_raw == raw) {
        cls = dense;
        break;
      }
    }
    if (cls == part->num_classes()) {
      cls = part->AddClass(i, 0);
      part->id_map.emplace_back(raw, cls);
    } else if (!SamePresence(input.sites[i],
                             input.sites[part->rep_site[cls]])) {
      *error = "site_classes groups sites with different chain presence "
               "or log-disk layout";
      return false;
    }
    part->class_of_site.push_back(cls);
    part->class_count[cls] += 1.0;
  }
  return true;
}

// The effective partition of one input under `options`: the explicit spec
// when provided (validated), byte-identity detection otherwise.
bool EffectivePartition(const ModelInput& input, const SolverOptions& options,
                        ClassPartition* part, std::string* error) {
  if (options.site_classes != nullptr) {
    return ApplySiteClassSpec(input, *options.site_classes, part, error);
  }
  DetectClasses(input, part);
  return true;
}

// Iteration-invariant class-level coupling (it depends only on chain
// presence and the partition): for each distributed chain pair (0 = DRO,
// 1 = DU), the classes whose slave (resp. coordinator) chain is present with
// their member counts, plus the total slave-site count. At use, a site's own
// class contributes multiplicity count - 1 (a site never couples with
// itself); entries whose multiplicity drops to zero are skipped, which
// reproduces the flat code's j != i loops exactly.
struct ClassCoupling {
  struct Entry {
    std::size_t cls;
    double count;
  };
  std::array<std::vector<Entry>, 2> slave_classes;
  std::array<std::vector<Entry>, 2> coord_classes;
  std::array<double, 2> total_slaves{};

  static std::size_t PairOf(TxnType t) {
    return t == TxnType::kDROC || t == TxnType::kDROS ? 0 : 1;
  }
  // Coupling multiplicity of `e` as seen from a site of class `own`.
  static double Mult(const Entry& e, std::size_t own) {
    return e.cls == own ? e.count - 1.0 : e.count;
  }
};

void BuildClassCoupling(const ModelInput& input, const ClassPartition& part,
                        ClassCoupling* coupling) {
  for (std::size_t c = 0; c < 2; ++c) {
    coupling->slave_classes[c].clear();
    coupling->coord_classes[c].clear();
    coupling->total_slaves[c] = 0.0;
  }
  for (std::size_t cls = 0; cls < part.num_classes(); ++cls) {
    const SiteParams& rep = input.sites[part.rep_site[cls]];
    const double count = part.class_count[cls];
    for (TxnType s : {TxnType::kDROS, TxnType::kDUS}) {
      if (rep.Class(s).population <= 0) continue;
      const std::size_t c = ClassCoupling::PairOf(s);
      coupling->slave_classes[c].push_back({cls, count});
      coupling->total_slaves[c] += count;
    }
    for (TxnType t : {TxnType::kDROC, TxnType::kDUC}) {
      if (rep.Class(t).population <= 0) continue;
      coupling->coord_classes[ClassCoupling::PairOf(t)].push_back(
          {cls, count});
    }
  }
}

// Number of slave sites serving a coordinator chain of type t homed at site
// i: every site with the matching slave chain except i itself (the flat
// code's SlaveSitesOf(i, t).size()).
double SlaveCountFor(const ModelInput& input, const ClassCoupling& coupling,
                     std::size_t i, TxnType t) {
  return coupling.total_slaves[ClassCoupling::PairOf(t)] -
         (input.sites[i].Class(SlaveOf(t)).population > 0 ? 1.0 : 0.0);
}

AccessSkew SkewOf(const SiteParams& site) {
  if (site.hot_data_fraction > 0.0 && site.hot_data_fraction < 1.0 &&
      site.hot_access_fraction > 0.0) {
    return AccessSkew{site.hot_data_fraction,
                      std::min(site.hot_access_fraction, 1.0)};
  }
  return AccessSkew{1.0, 1.0};  // uniform
}

// Working-set approximation of the LRU buffer hit probability: the hot set
// is cached first, the remainder of the buffer covers the cold set.
double BufferHitProbability(const SiteParams& site) {
  if (site.buffer_blocks <= 0) return 0.0;
  const double b = site.buffer_blocks;
  const double ng = site.num_granules;
  const AccessSkew skew = SkewOf(site);
  if (skew.IsUniform()) return std::min(1.0, b / ng);
  const double hot_blocks = skew.hot_data_fraction * ng;
  const double a = skew.hot_access_fraction;
  if (b <= hot_blocks) return a * b / hot_blocks;
  const double cold_blocks = ng - hot_blocks;
  return a + (1.0 - a) * std::min(1.0, (b - hot_blocks) / cold_blocks);
}

// Commit processing time (CPU + forced log writes) of type t at `site`,
// used by the CW-delay estimates (Section 5.7). The commit messages queue
// behind regular work at the site's CPU and log disk; by the arrival
// theorem a visit in a closed network sees roughly the mean queue, so each
// service time is inflated by (1 + Q) with Q from the site MVA.
double CommitProcessingMs(const SiteParams& site, TxnType t, double cpu_q,
                          double log_disk_q) {
  const ClassParams& c = site.Class(t);
  return c.tc_cpu_ms * (1.0 + cpu_q) +
         c.tcio_force_writes * site.block_io_ms * (1.0 + log_disk_q);
}

// Abort processing time of type t at `site` given its current sigma/nlk,
// with the same queueing inflation.
double AbortProcessingMs(const SiteParams& site, TxnType t, double sigma,
                         double nlk, double cpu_q, double disk_q) {
  const ClassParams& c = site.Class(t);
  const double undo = sigma * nlk;
  return (c.ta_fixed_cpu_ms + undo * c.ta_cpu_per_granule_ms) * (1.0 + cpu_q) +
         undo * c.taio_ios_per_granule * site.block_io_ms * (1.0 + disk_q);
}

// Builds the shape signature: one byte per site packing the six chain
// presence bits and the log-disk flag, then the site-class partition (one
// class id per site, width sized to the site count). Inputs with equal
// signatures build identical center/chain structures AND identical
// class/coupling structures (only demands, populations and think times
// differ), so they can share a SolveArena — and a collapsed input can never
// alias a same-presence input with a different replication pattern. A
// trailing byte carries the CC backend id. The total length
// n * (1 + width(n)) + 1 strictly increases with the site count, so no two
// shapes collide.
void BuildShapeKey(const ModelInput& input, const ClassPartition& part,
                   std::string* key) {
  key->clear();
  const std::size_t n = input.sites.size();
  for (const SiteParams& site : input.sites) {
    unsigned byte = site.separate_log_disk ? 0x40u : 0u;
    for (TxnType t : kAllTxnTypes) {
      if (site.Class(t).population > 0) byte |= 1u << Index(t);
    }
    key->push_back(static_cast<char>(byte));
  }
  const int width = n <= 0xff ? 1 : n <= 0xffff ? 2 : 4;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t cls = part.class_of_site[i];
    for (int b = 0; b < width; ++b) {
      key->push_back(static_cast<char>(cls & 0xffu));
      cls >>= 8;
    }
  }
  // CC backend id: different backends iterate different fixed points, so
  // their arenas and warm state must never coalesce.
  key->push_back(static_cast<char>(static_cast<int>(input.cc_backend)));
}

// ---- Fixed-point building blocks. -----------------------------------------
// One scenario's solve is a sequence of these steps plus the per-site MVA
// solves, driven by CaratModel::SolveOne on the arena's state.
//
// Every step takes `units`: the sites the fixed point actually iterates —
// all of them flat, one representative per class when collapsing. Identical
// sites have identical trajectories either way (the coupling sums read only
// class-representative state), so the collapsed trajectory is the flat one
// restricted to the representatives, bitwise.

// Workload-independent quantities: presence, q(t) (Yao) and N_lk(t) (Eq. 2).
void InitWorkloadInvariants(const ModelInput& input,
                            const std::vector<std::size_t>& units,
                            std::vector<SiteState>* st) {
  for (std::size_t i : units) {
    const SiteParams& site = input.sites[i];
    // Yao's count depends on the site and the selection alone, and a site's
    // chains often select alike (the paper's workloads give every local
    // chain one size and every distributed chain another), so each distinct
    // selection is counted once.
    std::array<long long, kNumTxnTypes> selections{};
    std::array<double, kNumTxnTypes> counts{};
    std::size_t known = 0;
    for (TxnType t : kAllTxnTypes) {
      const ClassParams& c = site.Class(t);
      ClassState& cs = (*st)[i].cls[Index(t)];
      cs.present = c.population > 0;
      if (!cs.present) continue;
      // Local requests drive the I/O and locking at this site; a
      // coordinator's remote requests are handled by its slave chains.
      // Every record access is a granule I/O (q), but only the first touch
      // of a granule is a fresh lock: N_lk counts distinct granules (Yao,
      // skew-aware) and lock_ratio rescales the per-LR blocking chance.
      if (c.local_requests > 0) {
        cs.q = c.records_per_request;
        const long long selected =
            static_cast<long long>(c.local_requests) * c.records_per_request;
        std::size_t k = 0;
        while (k < known && selections[k] != selected) ++k;
        if (k == known) {
          selections[known] = selected;
          counts[known++] = YaoExpectedBlocksSkewed(
              site.total_records(), site.num_granules, selected,
              SkewOf(site));
        }
        cs.nlk = counts[k];
        const double accesses =
            static_cast<double>(c.local_requests) * c.records_per_request;
        cs.lock_ratio = accesses > 0 ? cs.nlk / accesses : 1.0;
      }
    }
  }
}

// Per-site MVA networks (Fig. 2), one per solve unit. The center/chain
// structure is iteration-invariant; only the demands are rewritten each
// iteration before the (possibly concurrent) MVA solves.
void BuildSiteNetworks(const ModelInput& input,
                       const std::vector<SiteState>& st,
                       const std::vector<std::size_t>& units,
                       std::vector<SiteNetwork>* nets) {
  nets->clear();
  nets->resize(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    const std::size_t i = units[u];
    const SiteParams& site = input.sites[i];
    SiteNetwork& sn = (*nets)[u];
    sn.chain_types.reserve(kNumTxnTypes);
    sn.cpu = sn.net.AddCenter("CPU", qn::CenterKind::kQueueing);
    sn.disk = sn.net.AddCenter("DISK", qn::CenterKind::kQueueing);
    if (site.separate_log_disk)
      sn.log_disk = sn.net.AddCenter("LOG", qn::CenterKind::kQueueing);
    sn.lw = sn.net.AddCenter("LW", qn::CenterKind::kDelay);
    sn.rw = sn.net.AddCenter("RW", qn::CenterKind::kDelay);
    sn.cw = sn.net.AddCenter("CW", qn::CenterKind::kDelay);
    sn.ut = sn.net.AddCenter("UT", qn::CenterKind::kDelay);
    for (TxnType t : kAllTxnTypes) {
      if (!st[i].cls[Index(t)].present) continue;
      sn.net.AddChain(std::string(Name(t)), site.Class(t).population,
                      site.think_time_ms);
      sn.chain_types.push_back(t);
    }
  }
}

// Per-solve refresh of the quantities a shape key does not pin down:
// populations, think times and the buffer model may differ between
// same-shape inputs.
void RefreshSolveState(const ModelInput& input,
                       const std::vector<std::size_t>& units,
                       std::vector<SiteNetwork>* nets) {
  for (std::size_t u = 0; u < units.size(); ++u) {
    const SiteParams& site = input.sites[units[u]];
    SiteNetwork& sn = (*nets)[u];
    sn.buffer_hit_prob = BufferHitProbability(site);
    for (std::size_t k = 0; k < sn.chain_types.size(); ++k) {
      sn.net.chains[k].population = site.Class(sn.chain_types[k]).population;
      sn.net.chains[k].think_time = site.think_time_ms;
    }
  }
}

// Seeds the fixed point's state variables (Pb, Pd, Pra and the
// synchronization delays) from a neighbor's converged values. Collapsed
// solves read only the representatives' seeds; member seeds are ignored.
void SeedClassStates(const WarmStart& warm,
                     const std::vector<std::size_t>& units,
                     std::vector<SiteState>* st) {
  for (std::size_t i : units) {
    for (TxnType t : kAllTxnTypes) {
      ClassState& cs = (*st)[i].cls[Index(t)];
      if (!cs.present) continue;
      const WarmStart::ClassSeed& seed = warm.sites[i][Index(t)];
      cs.pb = seed.pb;
      cs.pd = seed.pd;
      cs.pra = seed.pra;
      cs.delays.r_lw_ms = seed.r_lw_ms;
      cs.delays.r_rw_ms = seed.r_rw_ms;
      cs.delays.r_cwc_ms = seed.r_cwc_ms;
      cs.delays.r_cwa_ms = seed.r_cwa_ms;
    }
  }
}

// (1) Visit counts with the current Pb / Pd / Pra. Returns false when a
// transition system is singular (the caller fails the solve).
bool StepVisitCounts(const ModelInput& input,
                     const std::vector<std::size_t>& units,
                     std::vector<SiteState>* st) {
  for (std::size_t i : units) {
    const SiteParams& site = input.sites[i];
    for (TxnType t : kAllTxnTypes) {
      ClassState& cs = (*st)[i].cls[Index(t)];
      if (!cs.present) continue;
      const ClassParams& c = site.Class(t);
      TransitionInputs in;
      in.local_requests = c.local_requests;
      in.remote_requests = c.remote_requests;
      in.io_per_request = cs.q;
      in.pb = cs.pb * cs.lock_ratio;
      in.pd = cs.pd;
      in.pra = cs.pra;
      if (!SolveVisitCounts(t, in, &cs.visits)) return false;
    }
  }
  return true;
}

// (2) sigma, P_a, N_s. Locals and coordinators first (Eq. 3); slaves inherit
// their coordinators' abort/submission behaviour.
void StepAbortChain(const ModelInput& input, const SolverOptions& options,
                    const ClassPartition& part, const ClassCoupling& coupling,
                    const std::vector<std::size_t>& units,
                    std::vector<SiteState>* st) {
  for (std::size_t i : units) {
    for (TxnType t : kAllTxnTypes) {
      ClassState& cs = (*st)[i].cls[Index(t)];
      if (!cs.present || IsSlave(t)) continue;
      const double pbpd = cs.pb * cs.pd;
      cs.sigma = SigmaFraction(pbpd, cs.nlk);
      double pa = 1.0 - std::pow(1.0 - pbpd, cs.nlk);
      if (IsCoordinator(t)) {
        const int r = input.sites[i].Class(t).remote_requests;
        pa = 1.0 - (1.0 - pa) * std::pow(1.0 - cs.pra, r);
      }
      cs.pa = std::min(pa, options.max_abort_prob);
      cs.ns = 1.0 / (1.0 - cs.pa);
    }
  }
  for (std::size_t j : units) {
    const std::size_t own = part.class_of_site[j];
    for (TxnType s : {TxnType::kDROS, TxnType::kDUS}) {
      ClassState& cs = (*st)[j].cls[Index(s)];
      if (!cs.present) continue;
      cs.sigma = SigmaFraction(cs.pb * cs.pd, cs.nlk);
      // The slave resubmits whenever its global transaction does, so its
      // N_s matches the (population-weighted) coordinators'.
      const TxnType t = CoordinatorOf(s);
      double pa = 0.0, weight = 0.0;
      for (const ClassCoupling::Entry& e :
           coupling.coord_classes[ClassCoupling::PairOf(s)]) {
        const double m = ClassCoupling::Mult(e, own);
        if (m <= 0.0) continue;
        const std::size_t i = part.rep_site[e.cls];
        const ClassState& cc = (*st)[i].cls[Index(t)];
        const double mw = m * input.sites[i].Class(t).population;
        pa += mw * cc.pa;
        weight += mw;
      }
      cs.pa = weight > 0.0 ? std::min(pa / weight, options.max_abort_prob)
                           : 0.0;
      cs.ns = 1.0 / (1.0 - cs.pa);
    }
  }
}

// (3a) Demands (Eqs. 5-10) written into site i's network chains.
void FillSiteDemands(const SiteParams& site, SiteState* si, SiteNetwork* sn) {
  for (std::size_t k = 0; k < sn->chain_types.size(); ++k) {
    ClassState& cs = si->cls[Index(sn->chain_types[k])];
    cs.demands = ComputeDemands(site, sn->chain_types[k], cs.visits, cs.ns,
                                cs.sigma, cs.nlk, cs.delays,
                                sn->buffer_hit_prob);
    std::vector<double>& demands = sn->net.chains[k].demands;
    demands[sn->cpu] = cs.demands.cpu_ms;
    demands[sn->disk] = cs.demands.db_disk_ms;
    if (site.separate_log_disk) demands[sn->log_disk] = cs.demands.log_disk_ms;
    demands[sn->lw] = cs.demands.lw_ms;
    demands[sn->rw] = cs.demands.rw_ms;
    demands[sn->cw] = cs.demands.cw_ms;
    demands[sn->ut] = cs.demands.ut_ms;
  }
}

// (3b) Per-class and per-site readback of site i's MVA solution.
void ReadSiteSolution(const SiteParams& site, const qn::Solution& sol,
                      const SiteNetwork& sn, SiteState* si) {
  for (std::size_t k = 0; k < sn.chain_types.size(); ++k) {
    ClassState& cs = si->cls[Index(sn.chain_types[k])];
    cs.x = sol.throughput[k];
    cs.r = sol.response_time[k];
  }
  si->cpu_util = sol.utilization[sn.cpu];
  si->db_util = sol.utilization[sn.disk];
  si->log_util = site.separate_log_disk ? sol.utilization[sn.log_disk] : 0.0;
  si->cpu_q = sol.queue_length[sn.cpu];
  si->db_q = sol.queue_length[sn.disk];
  si->log_q = site.separate_log_disk ? sol.queue_length[sn.log_disk]
                                     : si->db_q;
}

// (4) Execution durations and locks held (Fig. 3 / Eq. 14).
void StepDurations(const ModelInput& input, const SolverOptions& options,
                   const std::vector<std::size_t>& units,
                   std::vector<SiteState>* st) {
  for (std::size_t i : units) {
    const SiteParams& site = input.sites[i];
    for (TxnType t : kAllTxnTypes) {
      ClassState& cs = (*st)[i].cls[Index(t)];
      if (!cs.present) continue;
      // R from MVA covers one commit cycle: (N_s - 1) aborted executions
      // plus intermediate thinks plus the successful execution. Undo the
      // cycle structure to recover R_s (DESIGN.md section 4).
      const double active = std::max(cs.r - cs.demands.ut_ms, 0.0);
      const double denom = 1.0 + (cs.ns - 1.0) * cs.sigma;
      cs.rs = denom > 0.0 ? active / denom : active;
      // Blocking-time basis (Eq. 18): the blocker's execution time
      // *excluding its own lock waits*. Using the full response here makes
      // the LW fixed point non-contractive at high contention (waits
      // inflating waits); the paper's derivation assumes rare blocking, so
      // the active time is the consistent first-order basis (DESIGN.md §4).
      const double busy = std::max(
          cs.r - cs.demands.ut_ms -
              (1.0 - options.blocker_wait_fraction) * cs.demands.lw_ms,
          0.0);
      const double rs_busy = denom > 0.0 ? busy / denom : busy;
      cs.rexec = cs.pa * cs.sigma * rs_busy + (1.0 - cs.pa) * rs_busy;
      if (input.cc_backend == cc::BackendKind::kQueue) {
        // Queue backend: all N_lk locks are taken up front and held for the
        // whole execution, not grown linearly as Eq. 14 assumes.
        const double cycle = cs.rs + site.think_time_ms;
        cs.lh = cycle > 0.0 ? cs.nlk * cs.rs / cycle : cs.nlk;
      } else {
        cs.lh = AverageLocksHeld(cs.nlk, cs.sigma, cs.pa, cs.rs,
                                 site.think_time_ms);
      }
    }
  }
}

// (5) CC submodel: conflict / restart quantities for the configured backend
// (Eqs. 15-20 for 2PL; model/cc_submodel.h for the others). The step writes
// the undamped new values; the mixing step that follows the pass
// (Accelerator::Step) is shared by every backend, so they all converge alike.
void StepLockModel(const ModelInput& input,
                   const std::vector<std::size_t>& units,
                   std::vector<SiteState>* st) {
  for (std::size_t i : units) {
    SiteLockInputs li;
    li.num_granules = input.sites[i].num_granules;
    li.contention_factor = SkewOf(input.sites[i]).ContentionFactor();
    std::array<CcClassInputs, kNumTxnTypes> cls{};
    for (TxnType t : kAllTxnTypes) {
      const ClassState& cs = (*st)[i].cls[Index(t)];
      li.population[Index(t)] = input.sites[i].Class(t).population;
      li.locks_held[Index(t)] = cs.lh;
      li.lock_requests[Index(t)] = cs.nlk;
      cls[Index(t)] =
          CcClassInputs{cs.present, cs.nlk, cs.rexec, cs.rs, cs.demands.lw_ms};
    }
    CcSiteOutputs cc_out;
    SolveCcSite(input.cc_backend, input.restart_backoff_ms, li, cls, &cc_out);
    for (TxnType t : kAllTxnTypes) {
      ClassState& cs = (*st)[i].cls[Index(t)];
      if (!cs.present) continue;
      cs.pb = cc_out.pb[Index(t)];
      cs.pd = cc_out.pd[Index(t)];
      cs.plw = cc_out.plw[Index(t)];
      cs.delays.r_lw_ms = cc_out.r_lw[Index(t)];
    }
  }
}

// (5b) Communication Network Model: derive alpha from the current message
// rate. Each remote request is a message pair; each commit adds two rounds
// (PREPARE/vote, COMMIT/ack) per slave site.
void StepEthernet(const ModelInput& input, const SolverOptions& options,
                  const ClassPartition& part, const ClassCoupling& coupling,
                  const std::vector<SiteState>& st, double* alpha) {
  // Class-major with the chain types inner: for pairwise-distinct sites
  // (class k = site k) this is the flat site-major summation order exactly.
  double messages_per_ms = 0.0;
  for (std::size_t cls = 0; cls < part.num_classes(); ++cls) {
    const std::size_t i = part.rep_site[cls];
    for (TxnType t : {TxnType::kDROC, TxnType::kDUC}) {
      const ClassState& cs = st[i].cls[Index(t)];
      if (!cs.present) continue;
      const int r = input.sites[i].Class(t).remote_requests;
      const double slaves = SlaveCountFor(input, coupling, i, t);
      const double per_commit = cs.ns * 2.0 * r + 4.0 * slaves;
      messages_per_ms += part.class_count[cls] * (cs.x * per_commit);
    }
  }
  *alpha = qn::EthernetMeanDelayMs(*options.ethernet, options.message_bits,
                                   messages_per_ms);
}

// (6) Remote-wait and 2PC-wait coupling across sites (Eqs. 21-24, §5.7).
// The peer sums run over class representatives with multiplicity m (own
// class: count - 1; skipped at zero). For pairwise-distinct sites every
// m is 1 and the per-term expressions reduce to the flat per-peer ones
// bitwise — 1.0 * v == v and the addition order is the old site order.
void StepCrossSiteCoupling(const ModelInput& input, const ClassPartition& part,
                           const ClassCoupling& coupling, double alpha,
                           const std::vector<std::size_t>& units,
                           std::vector<SiteState>* st) {
  for (std::size_t i : units) {
    const SiteParams& site = input.sites[i];
    const std::size_t own = part.class_of_site[i];
    // Coordinators.
    for (TxnType t : {TxnType::kDROC, TxnType::kDUC}) {
      ClassState& cs = (*st)[i].cls[Index(t)];
      if (!cs.present) continue;
      const TxnType s = SlaveOf(t);
      const double num_slaves = SlaveCountFor(input, coupling, i, t);
      const int r = site.Class(t).remote_requests;

      double slave_busy_sum = 0.0;   // Eq. 21/22 numerator
      double pra_sum = 0.0;
      double cwc_max = 0.0, cwa_max = 0.0;
      for (const ClassCoupling::Entry& e :
           coupling.slave_classes[ClassCoupling::PairOf(t)]) {
        const double m = ClassCoupling::Mult(e, own);
        if (m <= 0.0) continue;
        const std::size_t j = part.rep_site[e.cls];
        const ClassState& ss = (*st)[j].cls[Index(s)];
        slave_busy_sum += m * std::max(
            ss.r - ss.demands.rw_ms - ss.demands.ut_ms, 0.0);
        // Per-remote-request abort probability at the slave: the slave
        // acquires nlk/l locks per request, each fatal with Pb*Pd.
        const int ls = input.sites[j].Class(s).local_requests;
        if (ls > 0) {
          pra_sum += m * (1.0 - std::pow(1.0 - ss.pb * ss.pd, ss.nlk / ls));
        }
        cwc_max = std::max(
            cwc_max, CommitProcessingMs(input.sites[j], s, (*st)[j].cpu_q,
                                        (*st)[j].log_q));
        cwa_max = std::max(
            cwa_max, AbortProcessingMs(input.sites[j], s, ss.sigma, ss.nlk,
                                       (*st)[j].cpu_q, (*st)[j].db_q));
      }
      cs.delays.r_rw_ms = num_slaves <= 0.0 || r <= 0
                              ? 0.0
                              : 2.0 * alpha + slave_busy_sum / (cs.ns * r);
      cs.pra = num_slaves <= 0.0 ? 0.0 : pra_sum / num_slaves;
      // Two round trips for PREPARE/COMMIT plus the slowest slave's commit
      // processing; one round trip plus rollback on the abort path.
      cs.delays.r_cwc_ms = 4.0 * alpha + cwc_max;
      cs.delays.r_cwa_ms = 2.0 * alpha + cwa_max;
    }
    // Slaves.
    for (TxnType s : {TxnType::kDROS, TxnType::kDUS}) {
      ClassState& cs = (*st)[i].cls[Index(s)];
      if (!cs.present) continue;
      const TxnType t = CoordinatorOf(s);
      const int ls = site.Class(s).local_requests;

      double rrw_sum = 0.0, pra_sum = 0.0, cwc_sum = 0.0, weight = 0.0;
      for (const ClassCoupling::Entry& e :
           coupling.coord_classes[ClassCoupling::PairOf(s)]) {
        const double m = ClassCoupling::Mult(e, own);
        if (m <= 0.0) continue;
        const std::size_t ci = part.rep_site[e.cls];
        const ClassState& cc = (*st)[ci].cls[Index(t)];
        const double mw = m * input.sites[ci].Class(t).population;
        const double f =
            1.0 / std::max(SlaveCountFor(input, coupling, ci, t), 1.0);
        // Eq. 23/24: coordinator response minus the remote waits it spends
        // on this slave site and its think time, spread over the requests.
        const double avail = std::max(
            cc.r - cc.demands.rw_ms * f - cc.demands.ut_ms, 0.0);
        if (ls > 0 && cs.ns > 0.0)
          rrw_sum += mw * avail / (cs.ns * ls);
        // Abort signals reaching the slave stem from coordinator-side
        // deadlocks, spread over the slave's l+1 remote waits.
        const double pa_coord_local =
            1.0 - std::pow(1.0 - cc.pb * cc.pd, cc.nlk);
        pra_sum += mw * (1.0 - std::pow(1.0 - pa_coord_local,
                                        1.0 / (ls + 1.0)));
        cwc_sum += mw * CommitProcessingMs(input.sites[ci], t,
                                           (*st)[ci].cpu_q, (*st)[ci].log_q);
        weight += mw;
      }
      cs.delays.r_rw_ms = weight > 0.0 ? rrw_sum / weight : 0.0;
      cs.pra = weight > 0.0 ? pra_sum / weight : 0.0;
      // Slave CWC: waiting for the coordinator's commit decision (one
      // round trip plus the coordinator's commit force-write).
      cs.delays.r_cwc_ms = weight > 0.0 ? 2.0 * alpha + cwc_sum / weight : 0.0;
      cs.delays.r_cwa_ms = 2.0 * alpha;
    }
  }
}

// (7) Convergence test on throughputs: max relative change, updating prev_x
// (sized units * kNumTxnTypes).
double ThroughputDelta(const std::vector<SiteState>& st,
                       const std::vector<std::size_t>& units,
                       std::vector<double>* prev_x) {
  double max_rel_delta = 0.0;
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (TxnType t : kAllTxnTypes) {
      const ClassState& cs = st[units[u]].cls[Index(t)];
      const std::size_t idx = u * kNumTxnTypes + Index(t);
      const double denom = std::max(std::fabs(cs.x), 1e-12);
      max_rel_delta =
          std::max(max_rel_delta, std::fabs(cs.x - (*prev_x)[idx]) / denom);
      (*prev_x)[idx] = cs.x;
    }
  }
  return max_rel_delta;
}

// ---- Mixing: the accelerated fixed point (DESIGN.md §16). ------------------
// The fixed point's state x holds, per present class of each solve unit,
// the quantities a warm start seeds — Pb, Pd, Pra and the four
// synchronization delays — plus alpha under the Ethernet model. Steps
// (1)-(6) read x and write T(x), undamped, into the same SiteState fields;
// every other field is recomputed from x each pass. The mixing step then
// picks the next iterate from x, T(x) and the stored history and writes it
// back.

// A class's fixed-point variables, in state-vector order.
enum StateField : std::size_t {
  kPb, kPd, kPra, kRlw, kRrw, kRcwc, kRcwa, kNumStateFields
};

constexpr int kAndersonDepth = 3;      // stored differences
constexpr int kResetBudget = 3;        // safeguard resets per budget
constexpr double kRearmFactor = 1e-2;  // residual drop that earns a new one

// The units in state-vector order: the class representatives in class order,
// then every other unit. Only the representatives' prefix enters the least
// squares and the residual norm, so a flat solve computes exactly the
// collapsed solve's coefficients and its members replay them on their own
// (identical) entries.
void BuildStateOrder(const ClassPartition& part,
                     const std::vector<std::size_t>& units,
                     std::vector<std::size_t>* order) {
  order->clear();
  for (std::size_t cls = 0; cls < part.num_classes(); ++cls) {
    order->push_back(part.rep_site[cls]);
  }
  for (std::size_t i : units) {
    if (part.rep_site[part.class_of_site[i]] != i) order->push_back(i);
  }
}

// Reads x out of `st` (alpha first when non-null). clear() keeps capacity.
void GatherState(const std::vector<SiteState>& st,
                 const std::vector<std::size_t>& order, const double* alpha,
                 std::vector<double>* x) {
  x->clear();
  if (alpha != nullptr) x->push_back(*alpha);
  for (std::size_t i : order) {
    for (const ClassState& cs : st[i].cls) {
      if (!cs.present) continue;
      x->insert(x->end(), {cs.pb, cs.pd, cs.pra, cs.delays.r_lw_ms,
                           cs.delays.r_rw_ms, cs.delays.r_cwc_ms,
                           cs.delays.r_cwa_ms});
    }
  }
}

// Writes x back into `st` (and alpha), the inverse of GatherState.
void ScatterState(const std::vector<double>& x,
                  const std::vector<std::size_t>& order, double* alpha,
                  std::vector<SiteState>* st) {
  const double* v = x.data();
  if (alpha != nullptr) *alpha = *v++;
  for (std::size_t i : order) {
    for (ClassState& cs : (*st)[i].cls) {
      if (!cs.present) continue;
      cs.pb = v[kPb];
      cs.pd = v[kPd];
      cs.pra = v[kPra];
      cs.delays.r_lw_ms = v[kRlw];
      cs.delays.r_rw_ms = v[kRrw];
      cs.delays.r_cwc_ms = v[kRcwc];
      cs.delays.r_cwa_ms = v[kRcwa];
      v += kNumStateFields;
    }
  }
}

// Solves the m x m (m <= kAndersonDepth) symmetric positive definite system
// a * gamma = b by Cholesky; only the lower triangle of `a` is read. Returns
// false when `a` is not numerically positive definite.
bool SolveSmallSpd(int m, double (*a)[kAndersonDepth], const double* b,
                   double* gamma) {
  double l[kAndersonDepth][kAndersonDepth] = {};
  for (int p = 0; p < m; ++p) {
    for (int q = 0; q <= p; ++q) {
      double sum = a[p][q];
      for (int k = 0; k < q; ++k) sum -= l[p][k] * l[q][k];
      if (q < p) {
        l[p][q] = sum / l[q][q];
      } else {
        if (!(sum > 0.0)) return false;
        l[p][p] = std::sqrt(sum);
      }
    }
  }
  double y[kAndersonDepth];
  for (int p = 0; p < m; ++p) {
    double sum = b[p];
    for (int k = 0; k < p; ++k) sum -= l[p][k] * y[k];
    y[p] = sum / l[p][p];
  }
  for (int p = m - 1; p >= 0; --p) {
    double sum = y[p];
    for (int k = p + 1; k < m; ++k) sum -= l[k][p] * gamma[k];
    gamma[p] = sum / l[p][p];
  }
  for (int p = 0; p < m; ++p) {
    if (!std::isfinite(gamma[p])) return false;
  }
  return true;
}

// A safeguarded depth-3 type-II Anderson iteration with beta = 1
// (Walker & Ni, "Anderson Acceleration for Fixed-Point Iterations", SIAM J.
// Numer. Anal. 49(4), 2011):
//
//   gamma   = argmin || W (f_k - dF gamma) ||_2,   f = T(x) - x,
//   x_{k+1} = T(x_k) - dG gamma,
//
// over the last kAndersonDepth differences dF / dG of consecutive residuals
// and map values. When the weighted max-norm residual rises, the safeguard
// clears the history and takes the damped step x + damping * f instead.
// After kResetBudget such resets the solve keeps the damped step until its
// residual has fallen kRearmFactor below the one at which the budget ran
// out; then it gets a new budget. Every buffer keeps its capacity across
// solves, so a warm arena allocates nothing.
//
// The weights W keep the step as invariant as the model (DESIGN.md §16):
// Pb and Pra weigh 1; Pd and R_LW act only through Pb, so they weigh Pb and
// Pb / T; the other times weigh 1 / T, where T is the largest time entry.
// Only the first `weighted` entries (alpha and the class representatives)
// enter the least squares and the norm.
struct Accelerator {
  std::size_t weighted = 0;
  bool with_alpha = false;  // entry 0 is alpha
  double damping = 0.0;
  std::vector<double> x;       // current iterate
  std::vector<double> g;       // T(x)
  std::vector<double> w;       // weights, weighted prefix
  std::vector<double> f;       // residual, weighted prefix
  std::vector<double> f_prev;  // previous residual, weighted prefix
  std::vector<double> g_prev;  // previous T(x)
  // kAndersonDepth ring slots of dF (weighted prefix) and dG (full length).
  std::vector<double> df, dg;
  int columns = 0;  // stored differences
  int oldest = 0;   // slot overwritten next once all are stored
  bool has_prev = false;
  double prev_norm = 0.0;
  int resets = 0;
  double exhausted_norm = 0.0;  // residual when the budget last ran out
  int accelerated = 0;
  int fallback = 0;

  // Starts a solve from the iterate already gathered into x.
  void Start(std::size_t weighted_entries, bool alpha_entry,
             double damping0) {
    weighted = weighted_entries;
    with_alpha = alpha_entry;
    damping = damping0;
    const std::size_t n = x.size();
    g.assign(n, 0.0);
    w.assign(weighted, 0.0);
    f.assign(weighted, 0.0);
    f_prev.assign(weighted, 0.0);
    g_prev.assign(n, 0.0);
    df.assign(kAndersonDepth * weighted, 0.0);
    dg.assign(kAndersonDepth * n, 0.0);
    columns = 0;
    oldest = 0;
    has_prev = false;
    prev_norm = 0.0;
    resets = 0;
    exhausted_norm = 0.0;
    accelerated = 0;
    fallback = 0;
  }

  // W at (x, T(x)): see the struct comment. T is the largest time entry of
  // x and T(x); R_LW counts only where Pb > 0, because at Pb = 0 it is
  // unreachable and the CC backends legitimately disagree on it.
  void ComputeWeights() {
    const std::size_t first = with_alpha ? 1 : 0;
    double t_max = with_alpha ? std::max(x[0], g[0]) : 0.0;
    for (std::size_t b = first; b < weighted; b += kNumStateFields) {
      for (std::size_t p : {kRrw, kRcwc, kRcwa}) {
        t_max = std::max({t_max, x[b + p], g[b + p]});
      }
      if (g[b + kPb] > 0.0) {
        t_max = std::max({t_max, x[b + kRlw], g[b + kRlw]});
      }
    }
    const double inv_t = t_max > 0.0 ? 1.0 / t_max : 1.0;
    if (with_alpha) w[0] = inv_t;
    for (std::size_t b = first; b < weighted; b += kNumStateFields) {
      const double pb = g[b + kPb];
      w[b + kPb] = 1.0;
      w[b + kPd] = pb;
      w[b + kPra] = 1.0;
      w[b + kRlw] = pb * inv_t;
      w[b + kRrw] = inv_t;
      w[b + kRcwc] = inv_t;
      w[b + kRcwa] = inv_t;
    }
  }

  // x <- x + damping * (g - x).
  void DampedStep() {
    for (std::size_t j = 0; j < x.size(); ++j) x[j] += damping * (g[j] - x[j]);
    ++fallback;
  }

  // The lower triangle of the M x M weighted normal equations,
  // a[p][q] = sum_j (w_j dF_pj)(w_j dF_qj) and rhs[p] = sum_j (w_j dF_pj)(w_j f_j),
  // in one pass over j. Each sum has its own accumulator and adds its terms
  // in j order, so each is the serial sum bit for bit.
  template <int M>
  void NormalEquations(double (*a)[kAndersonDepth], double* rhs) const {
    double sum_a[M][M] = {};
    double sum_rhs[M] = {};
    for (std::size_t j = 0; j < weighted; ++j) {
      double wd[M];
      for (int p = 0; p < M; ++p) wd[p] = w[j] * df[p * weighted + j];
      const double wf = w[j] * f[j];
      for (int p = 0; p < M; ++p) {
        for (int q = 0; q <= p; ++q) sum_a[p][q] += wd[p] * wd[q];
        sum_rhs[p] += wd[p] * wf;
      }
    }
    for (int p = 0; p < M; ++p) {
      for (int q = 0; q <= p; ++q) a[p][q] = sum_a[p][q];
      rhs[p] = sum_rhs[p];
    }
  }

  // x <- g - dG gamma with gamma from the weighted normal equations plus a
  // 1e-12 * trace ridge; gamma = 0 (the plain step) when they degenerate.
  void AndersonStep() {
    switch (columns) {
      case 0: AndersonStep<0>(); break;
      case 1: AndersonStep<1>(); break;
      case 2: AndersonStep<2>(); break;
      default: AndersonStep<kAndersonDepth>(); break;
    }
  }

  // AndersonStep over M = columns stored differences.
  template <int M>
  void AndersonStep() {
    double gamma[kAndersonDepth] = {};
    if constexpr (M > 0) {
      double a[kAndersonDepth][kAndersonDepth] = {};
      double rhs[kAndersonDepth] = {};
      NormalEquations<M>(a, rhs);
      double trace = 0.0;
      for (int p = 0; p < M; ++p) trace += a[p][p];
      for (int p = 0; p < M; ++p) a[p][p] += 1e-12 * trace;
      if (!SolveSmallSpd(M, a, rhs, gamma)) {
        std::fill(gamma, gamma + M, 0.0);
      }
      ++accelerated;
    }
    const std::size_t n = x.size();
    for (std::size_t j = 0; j < n; ++j) {
      double v = g[j];
      for (int p = 0; p < M; ++p) v -= gamma[p] * dg[p * n + j];
      x[j] = v;
    }
  }

  // Probabilities into [0, 1], times to >= 0.
  void Clamp() {
    const std::size_t first = with_alpha ? 1 : 0;
    if (with_alpha) x[0] = std::max(x[0], 0.0);
    for (std::size_t b = first; b < x.size(); b += kNumStateFields) {
      for (std::size_t p : {kPb, kPd, kPra}) {
        x[b + p] = std::clamp(x[b + p], 0.0, 1.0);
      }
      for (std::size_t p : {kRlw, kRrw, kRcwc, kRcwa}) {
        x[b + p] = std::max(x[b + p], 0.0);
      }
    }
  }

  // Appends the newest differences f - f_prev and g - g_prev, overwriting
  // the oldest once kAndersonDepth are stored.
  void PushDifference() {
    int slot = oldest;
    if (columns < kAndersonDepth) {
      slot = columns++;
    } else {
      oldest = (oldest + 1) % kAndersonDepth;
    }
    double* dfs = df.data() + slot * weighted;
    for (std::size_t j = 0; j < weighted; ++j) dfs[j] = f[j] - f_prev[j];
    double* dgs = dg.data() + slot * x.size();
    for (std::size_t j = 0; j < x.size(); ++j) dgs[j] = g[j] - g_prev[j];
  }

  // Takes one step from x, given g = T(x).
  void Step() {
    ComputeWeights();
    double norm = 0.0;
    for (std::size_t j = 0; j < weighted; ++j) {
      f[j] = g[j] - x[j];
      norm = std::max(norm, std::fabs(w[j] * f[j]));
    }
    bool damped = resets >= kResetBudget;
    if (damped && norm < kRearmFactor * exhausted_norm) {
      resets = 0;
      damped = false;
    }
    if (!damped && has_prev && norm > prev_norm) {
      if (++resets == kResetBudget) exhausted_norm = norm;
      columns = 0;
      oldest = 0;
      damped = true;
    } else if (!damped && has_prev) {
      PushDifference();
    }
    if (damped) {
      DampedStep();
    } else {
      AndersonStep();
    }
    Clamp();
    f_prev.swap(f);
    g_prev.swap(g);  // the next GatherState refills g
    prev_norm = norm;
    has_prev = true;
  }
};

// Expands a collapsed solve: copies each class representative's converged
// state onto the member sites. SiteState is trivially copyable, so the
// copies allocate nothing; downstream (ExportWarm, AssembleSolution) then
// runs over the full site vector unchanged.
void ExpandClassStates(const ClassPartition& part,
                       std::vector<SiteState>* st) {
  for (std::size_t i = 0; i < st->size(); ++i) {
    const std::size_t rep = part.rep_site[part.class_of_site[i]];
    if (rep != i) (*st)[i] = (*st)[rep];
  }
}

// Exports the converged state for future warm starts.
void ExportWarm(const std::vector<SiteState>& st, double alpha,
                WarmStart* warm_out) {
  warm_out->comm_delay_ms = alpha;
  warm_out->sites.assign(st.size(), {});
  for (std::size_t i = 0; i < st.size(); ++i) {
    for (TxnType t : kAllTxnTypes) {
      const ClassState& cs = st[i].cls[Index(t)];
      WarmStart::ClassSeed& seed = warm_out->sites[i][Index(t)];
      seed.present = cs.present;
      if (!cs.present) continue;
      seed.pb = cs.pb;
      seed.pd = cs.pd;
      seed.pra = cs.pra;
      seed.r_lw_ms = cs.delays.r_lw_ms;
      seed.r_rw_ms = cs.delays.r_rw_ms;
      seed.r_cwc_ms = cs.delays.r_cwc_ms;
      seed.r_cwa_ms = cs.delays.r_cwa_ms;
    }
  }
}

// Assembles the converged state into the caller's solution. assign() (rather
// than resize) value-resets every slot while keeping the vector's and the
// name strings' capacity, so a reused `out` of the same site count allocates
// nothing.
void AssembleSolution(const ModelInput& input, const std::vector<SiteState>& st,
                      bool converged, int iterations, double alpha,
                      ModelSolution* out) {
  const std::size_t num_sites = input.sites.size();
  out->converged = converged;
  out->iterations = iterations;
  out->comm_delay_ms = alpha;
  out->sites.assign(num_sites, SiteSolution{});
  for (std::size_t i = 0; i < num_sites; ++i) {
    const SiteParams& site = input.sites[i];
    SiteSolution& ss = out->sites[i];
    ss.name = site.name;
    ss.cpu_utilization = st[i].cpu_util;
    ss.db_disk_utilization = st[i].db_util;
    ss.log_disk_utilization = st[i].log_util;
    // Every disk operation transfers one block at block_io_ms, so the I/O
    // rate follows from utilization (the paper derives its modeled DIO the
    // same way).
    ss.dio_per_s =
        (st[i].db_util + st[i].log_util) / site.block_io_ms * 1000.0;
    for (TxnType t : kAllTxnTypes) {
      const ClassState& cs = st[i].cls[Index(t)];
      ClassSolution& c = ss.classes[Index(t)];
      c.present = cs.present;
      if (!cs.present) continue;
      c.throughput_per_s = cs.x * 1000.0;
      c.response_ms = cs.r;
      c.pa = cs.pa;
      c.ns = cs.ns;
      c.pb = cs.pb;
      c.pd = cs.pd;
      c.plw = cs.plw;
      c.lh = cs.lh;
      c.nlk = cs.nlk;
      c.sigma = cs.sigma;
      c.io_per_request = cs.q;
      c.r_lw_ms = cs.delays.r_lw_ms;
      c.r_rw_ms = cs.delays.r_rw_ms;
      c.r_cw_ms = cs.delays.r_cwc_ms;
      c.d_lw_ms = cs.demands.lw_ms;
      c.d_rw_ms = cs.demands.rw_ms;
      c.d_cw_ms = cs.demands.cw_ms;
      if (!IsSlave(t)) {
        const ClassParams& cp = site.Class(t);
        ss.txn_per_s += c.throughput_per_s;
        ss.records_per_s += c.throughput_per_s *
                            cp.total_requests() * cp.records_per_request;
      }
    }
  }
}

// Resets the solve-status fields of `out` before a solve.
void ResetSolution(ModelSolution* out) {
  out->ok = false;
  out->converged = false;
  out->iterations = 0;
  out->accelerated_steps = 0;
  out->fallback_steps = 0;
  out->warm_started = false;
  out->error.clear();
  out->comm_delay_ms = 0.0;
}

}  // namespace

// Cross-solve state of a solve: everything whose size depends only on the
// shape. One solve state plus one MVA workspace per unit; site_ws[u] retains
// unit u's Schweitzer queue lengths across solves. `shape` records the
// signature the buffers were built for; the scratch string is persistent so
// re-deriving the signature of the next input allocates nothing.
struct SolveArena::Impl {
  std::string shape;
  std::string shape_scratch;
  ClassPartition part;
  std::vector<std::size_t> units;
  std::vector<std::size_t> state_order;  // units in state-vector order
  ClassCoupling coupling;
  std::vector<SiteState> st;
  std::vector<SiteNetwork> nets;
  std::vector<double> prev_x;
  Accelerator acc;
  std::vector<qn::MvaWorkspace> site_ws;

  // Drops the retained Schweitzer queue lengths at every unit, so the next
  // solve starts from the even-spread guess like a fresh arena's.
  void InvalidateWarm() {
    for (qn::MvaWorkspace& ws : site_ws) ws.qkm.clear();
  }
};

SolveArena::SolveArena() : impl_(std::make_unique<Impl>()) {}
SolveArena::~SolveArena() = default;
SolveArena::SolveArena(SolveArena&&) noexcept = default;
SolveArena& SolveArena::operator=(SolveArena&&) noexcept = default;

std::string SolveShapeKey(const ModelInput& input) {
  ClassPartition part;
  DetectClasses(input, &part);
  std::string key;
  BuildShapeKey(input, part, &key);
  return key;
}

bool WarmStart::CompatibleWith(const ModelInput& input) const {
  if (sites.size() != input.sites.size()) return false;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (TxnType t : kAllTxnTypes) {
      if (sites[i][Index(t)].present !=
          (input.sites[i].Class(t).population > 0)) {
        return false;
      }
    }
  }
  return true;
}

double ModelSolution::TotalTxnPerSec() const {
  double total = 0.0;
  for (const SiteSolution& s : sites) total += s.txn_per_s;
  return total;
}

double ModelSolution::TotalRecordsPerSec() const {
  double total = 0.0;
  for (const SiteSolution& s : sites) total += s.records_per_s;
  return total;
}

CaratModel::CaratModel(ModelInput input) : input_(std::move(input)) {}

ModelSolution CaratModel::Solve(const SolverOptions& options) const {
  return Solve(options, nullptr, nullptr);
}

ModelSolution CaratModel::Solve(const SolverOptions& options,
                                const WarmStart* warm,
                                WarmStart* warm_out) const {
  ModelSolution out;
  SolveInto(options, nullptr, warm, &out, warm_out);
  return out;
}

void CaratModel::SolveInto(const SolverOptions& options, SolveArena* arena,
                           const WarmStart* warm, ModelSolution* out,
                           WarmStart* warm_out) const {
  SolveOne(input_, options, arena, warm, out, warm_out);
}

void CaratModel::SolveBatchInto(const ModelInput* const* inputs,
                                std::size_t lanes,
                                const SolverOptions& options,
                                SolveArena* arena,
                                const WarmStart* const* seeds,
                                ModelSolution* const* outs,
                                WarmStart* const* warm_outs) {
  std::optional<SolveArena> local_arena;
  if (arena == nullptr) arena = &local_arena.emplace();
  for (std::size_t w = 0; w < lanes; ++w) {
    SolveOne(*inputs[w], options, arena,
             seeds != nullptr ? seeds[w] : nullptr, outs[w],
             warm_outs != nullptr ? warm_outs[w] : nullptr);
  }
}

void CaratModel::SolveOne(const ModelInput& input,
                          const SolverOptions& options, SolveArena* arena,
                          const WarmStart* warm, ModelSolution* out,
                          WarmStart* warm_out) {
  std::optional<SolveArena> local_arena;
  if (arena == nullptr) arena = &local_arena.emplace();
  SolveArena::Impl& ar = *arena->impl_;

  // ---- Validation and shape. -----------------------------------------------
  // The shape signature is the presence pattern, the class partition and
  // the collapse mode. The partition drives the class-aggregated coupling
  // sums; with collapse_site_classes it also shrinks the solved set to one
  // representative per class, expanded back after convergence.
  ResetSolution(out);
  if (!input.Validate(&out->error) ||
      !EffectivePartition(input, options, &ar.part, &out->error)) {
    out->sites.clear();
    return;
  }
  out->ok = true;
  const std::size_t num_sites = input.sites.size();
  const bool collapse =
      options.collapse_site_classes && ar.part.num_classes() < num_sites;
  BuildShapeKey(input, ar.part, &ar.shape_scratch);
  ar.shape_scratch.push_back(collapse ? '\1' : '\0');

  // ---- Solve units. --------------------------------------------------------
  // The sites the fixed point iterates: all of them flat, one representative
  // per class when collapsing.
  std::vector<std::size_t>& units = ar.units;
  units.clear();
  units.reserve(collapse ? ar.part.num_classes() : num_sites);
  if (collapse) {
    for (std::size_t cls = 0; cls < ar.part.num_classes(); ++cls) {
      units.push_back(ar.part.rep_site[cls]);
    }
  } else {
    for (std::size_t i = 0; i < num_sites; ++i) units.push_back(i);
  }
  const std::size_t num_units = units.size();
  BuildStateOrder(ar.part, units, &ar.state_order);

  std::vector<SiteState>& st = ar.st;
  st.assign(num_sites, SiteState{});
  InitWorkloadInvariants(input, units, &st);

  // ---- Shape-keyed arena state. --------------------------------------------
  // The per-unit networks, the class coupling, the MVA workspaces and every
  // other shape-sized buffer are rebuilt only when the shape signature
  // differs from the arena's; same-shape re-solves just rewrite populations
  // and demands in place and allocate nothing. The presence flags in `st`
  // drive the chain layout. The arena takes the new key only once the
  // rebuild is complete, so a rebuild cut short by an exception is redone.
  if (ar.shape != ar.shape_scratch) {
    BuildSiteNetworks(input, st, units, &ar.nets);
    BuildClassCoupling(input, ar.part, &ar.coupling);
    // Fresh workspaces: the retained queue lengths of another shape must
    // not leak into this one.
    ar.site_ws.assign(num_units, qn::MvaWorkspace{});
    ar.shape = ar.shape_scratch;
  }

  // ---- Solve state, seeding and refresh. -----------------------------------
  // Alpha is fixed input unless the Ethernet model is enabled, in which case
  // it is re-derived from the model's own message rate each iteration (the
  // two-level coupling of Section 3). A compatible seed initializes the
  // state variables (Pb, Pd, Pra, the synchronization delays, alpha under
  // the Ethernet model and the retained per-site Schweitzer queue lengths)
  // from a neighbor's converged values. A cold solve drops the retained
  // queue lengths so its trajectory is bit-identical to a fresh-arena
  // solve. The accelerator then starts from the seeded (or zero) state;
  // alpha is part of that state only under the Ethernet model.
  RefreshSolveState(input, units, &ar.nets);
  double alpha = input.comm_delay_ms;
  double* const alpha_ptr = options.ethernet.has_value() ? &alpha : nullptr;
  ar.prev_x.assign(num_units * kNumTxnTypes, 0.0);
  const bool seeded = warm != nullptr && warm->CompatibleWith(input);
  out->warm_started = seeded;
  if (seeded) {
    if (alpha_ptr != nullptr) alpha = warm->comm_delay_ms;
    SeedClassStates(*warm, units, &st);
  } else {
    ar.InvalidateWarm();
  }
  // The weighted prefix: alpha and the class representatives' entries.
  std::size_t weighted = alpha_ptr != nullptr ? 1 : 0;
  for (std::size_t k = 0; k < ar.part.num_classes(); ++k) {
    for (const ClassState& cs : st[ar.state_order[k]].cls) {
      if (cs.present) weighted += kNumStateFields;
    }
  }
  Accelerator& acc = ar.acc;
  GatherState(st, ar.state_order, alpha_ptr, &acc.x);
  acc.Start(weighted, alpha_ptr != nullptr, options.damping);

  // ---- Fixed-point iteration (Section 6). ----------------------------------
  bool converged = false;
  int iterations = 0;
  std::string mva_error;
  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    // High-contention inputs can make even the damped fallback step
    // oscillate; shrinking its damping factor over time restores
    // convergence.
    if (iteration % 100 == 0)
      acc.damping = std::max(acc.damping * 0.5, 0.02);
    // (1) Visit counts with the current Pb / Pd / Pra; (2) sigma, P_a, N_s.
    if (!StepVisitCounts(input, units, &st)) {
      out->error = "visit-count system singular";
      out->ok = false;
      out->sites.clear();
      return;
    }
    StepAbortChain(input, options, ar.part, ar.coupling, units, &st);

    // (3) Demands (Eqs. 5-10) and the per-site MVA solves. The kernels resume
    // from the previous iteration's queue lengths: the fixed point moves the
    // demands only slightly per iteration, so large-population Schweitzer
    // sites converge in a few rounds. Finite inputs can still overflow a
    // demand to inf (or NaN) mid-solve, e.g. a communication delay near
    // DBL_MAX; that network fails the kernel's validation, which fails the
    // solve.
    for (std::size_t u = 0; u < num_units; ++u) {
      const std::size_t i = units[u];
      FillSiteDemands(input.sites[i], &st[i], &ar.nets[u]);
      qn::MvaWorkspace& ws = ar.site_ws[u];
      const bool ok =
          options.use_exact_mva
              ? qn::SolveMvaInPlace(ar.nets[u].net, &ws, 1u << 20,
                                    /*warm_start=*/true, &mva_error)
              : qn::SchweitzerMvaInPlace(ar.nets[u].net, &ws,
                                         /*tolerance=*/1e-9,
                                         /*max_iterations=*/10000,
                                         /*warm_start=*/true, &mva_error);
      if (!ok) {
        out->error =
            "MVA failed at site " + input.sites[i].name + ": " + mva_error;
        out->ok = false;
        out->sites.clear();
        ar.InvalidateWarm();
        return;
      }
      ReadSiteSolution(input.sites[i], ws.solution, ar.nets[u], &st[i]);
    }

    // (4) Durations and locks held, (5) the CC submodel, (5b) the
    // Communication Network Model, (6) cross-site coupling — together T(x)
    // — then the mixing step and (7) the convergence test on throughputs.
    StepDurations(input, options, units, &st);
    StepLockModel(input, units, &st);
    if (alpha_ptr != nullptr) {
      StepEthernet(input, options, ar.part, ar.coupling, st, &alpha);
    }
    StepCrossSiteCoupling(input, ar.part, ar.coupling, alpha, units, &st);
    GatherState(st, ar.state_order, alpha_ptr, &acc.g);
    acc.Step();
    ScatterState(acc.x, ar.state_order, alpha_ptr, &st);
    const double max_rel_delta = ThroughputDelta(st, units, &ar.prev_x);
    iterations = iteration;
    if (iteration > 2 && max_rel_delta < options.tolerance) {
      converged = true;
      break;
    }
  }

  // ---- Export and assemble. ------------------------------------------------
  if (collapse) ExpandClassStates(ar.part, &st);
  if (warm_out != nullptr) ExportWarm(st, alpha, warm_out);
  AssembleSolution(input, st, converged,
                   converged ? iterations : options.max_iterations, alpha,
                   out);
  out->accelerated_steps = acc.accelerated;
  out->fallback_steps = acc.fallback;
}

}  // namespace carat::model

// Golden model solutions: pins the analytical model's results bit for bit
// across commits. Each case solves a fixed input and compares a 64-bit
// FNV-1a hash of its fuzz::ModelSolutionFingerprint (every iteration count
// and every solved double, bit for bit) against the table below.
//
// The grid covers the paper's four workloads (2 sites) at n = 4, 12 and 20
// requests per transaction, under the four concurrency-control backends,
// with exact MVA and with Schweitzer-Bard at every site, all cold. Two
// cases cover the other entry points: a chain of warm-seeded solves through
// one arena, and one 4-lane CaratModel::SolveBatchInto block.
//
// A change that claims to leave the model's results unchanged (a kernel
// rewrite, a refactor of the fixed point) must pass this test unedited. A
// change that moves results on purpose regenerates the table from the
// failure output and says so in CHANGES.md.
//
// The model calls glibc's libm (pow, exp, log1p, expm1, lgamma_r), so the
// hashes hold for glibc on x86-64; another libm may round those calls
// differently and move every hash. The numeric targets are built with
// -ffp-contract=off, so the hashes do not depend on the target's FMA
// support.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/cc.h"
#include "fuzz/scenario.h"
#include "model/solver.h"
#include "workload/spec.h"

namespace carat {
namespace {

using model::CaratModel;
using model::ModelInput;
using model::ModelSolution;
using model::SolverOptions;

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Paper {
  const char* name;
  workload::WorkloadSpec (*make)(int requests_per_txn, int num_nodes);
};

constexpr Paper kPapers[] = {{"lb8", workload::MakeLB8},
                             {"mb4", workload::MakeMB4},
                             {"mb8", workload::MakeMB8},
                             {"ub6", workload::MakeUB6}};

ModelInput PaperInput(const Paper& paper, int n, cc::BackendKind kind) {
  workload::WorkloadSpec spec = paper.make(n, 2);
  spec.cc_backend = kind;
  return spec.ToModelInput();
}

// One labelled fingerprint per case, in table order.
std::vector<std::pair<std::string, std::string>> Fingerprints() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Paper& paper : kPapers) {
    for (const int n : {4, 12, 20}) {
      for (const cc::BackendKind kind : cc::kAllBackends) {
        for (const bool exact : {true, false}) {
          SolverOptions options;
          options.use_exact_mva = exact;
          const ModelSolution s =
              CaratModel(PaperInput(paper, n, kind)).Solve(options);
          out.emplace_back(std::string(paper.name) + "/n" + std::to_string(n) +
                               "/" + std::string(cc::Name(kind)) +
                               (exact ? "/exact" : "/approx"),
                           fuzz::ModelSolutionFingerprint(s));
        }
      }
    }
  }

  // mb8 at n = 8, 9, 10, 11 through one arena, each solve seeded from the
  // one before it: the warm path of the serving layer.
  {
    model::SolveArena arena;
    model::WarmStart seed, next;
    std::string chain;
    for (int n = 8; n <= 11; ++n) {
      ModelSolution s;
      CaratModel(PaperInput(kPapers[2], n, cc::BackendKind::k2PL))
          .SolveInto(SolverOptions{}, &arena, n == 8 ? nullptr : &seed, &s,
                     &next);
      chain += fuzz::ModelSolutionFingerprint(s);
      seed = next;
    }
    out.emplace_back("warm-chain-mb8", chain);
  }

  // One 4-lane block of ub6 inputs under wait-die.
  {
    std::vector<ModelInput> inputs;
    for (const int n : {5, 9, 13, 17})
      inputs.push_back(PaperInput(kPapers[3], n, cc::BackendKind::kWaitDie));
    std::vector<ModelSolution> outs(inputs.size());
    std::vector<const ModelInput*> in_ptrs;
    std::vector<ModelSolution*> out_ptrs;
    for (std::size_t w = 0; w < inputs.size(); ++w) {
      in_ptrs.push_back(&inputs[w]);
      out_ptrs.push_back(&outs[w]);
    }
    CaratModel::SolveBatchInto(in_ptrs.data(), inputs.size(), SolverOptions{},
                               nullptr, nullptr, out_ptrs.data());
    std::string block;
    for (const ModelSolution& s : outs)
      block += fuzz::ModelSolutionFingerprint(s);
    out.emplace_back("batch4-ub6", block);
  }
  return out;
}

struct Golden {
  const char* label;
  std::uint64_t hash;
};

// Generated from the model at the commit that introduced this test.
constexpr Golden kGolden[] = {
    {"lb8/n4/2pl/exact", 0x88c334f8532fcb79ull},
    {"lb8/n4/2pl/approx", 0xadaf52d5b0333045ull},
    {"lb8/n4/nowait/exact", 0xbd017a0efb7da28aull},
    {"lb8/n4/nowait/approx", 0xa7ec17dc888e3626ull},
    {"lb8/n4/waitdie/exact", 0x8b59384cc3f244b8ull},
    {"lb8/n4/waitdie/approx", 0x1d3f7b3f5873ec12ull},
    {"lb8/n4/queue/exact", 0x38709c36534077ffull},
    {"lb8/n4/queue/approx", 0x6a23baa8e76999caull},
    {"lb8/n12/2pl/exact", 0x845bb4a25348f299ull},
    {"lb8/n12/2pl/approx", 0xed1611c52b01d36bull},
    {"lb8/n12/nowait/exact", 0xcfee08f5e1b099c9ull},
    {"lb8/n12/nowait/approx", 0xa9e49b033ad7f96aull},
    {"lb8/n12/waitdie/exact", 0x7d2740da57cb4919ull},
    {"lb8/n12/waitdie/approx", 0xacc8ec1a9741d4b7ull},
    {"lb8/n12/queue/exact", 0x572742cc60282c33ull},
    {"lb8/n12/queue/approx", 0x3bca8073261763adull},
    {"lb8/n20/2pl/exact", 0x31d4a9c198d318e6ull},
    {"lb8/n20/2pl/approx", 0x180f6da9d663e7d8ull},
    {"lb8/n20/nowait/exact", 0xe4f2ef6c13f766fdull},
    {"lb8/n20/nowait/approx", 0xc6df55b396166b13ull},
    {"lb8/n20/waitdie/exact", 0xb63f79baa92e343cull},
    {"lb8/n20/waitdie/approx", 0x6346e8fa5c561c2bull},
    {"lb8/n20/queue/exact", 0xa28b8b362cf8972bull},
    {"lb8/n20/queue/approx", 0x019693b750cdc82eull},
    {"mb4/n4/2pl/exact", 0x90361f939c27612cull},
    {"mb4/n4/2pl/approx", 0x019229162b3bfeb0ull},
    {"mb4/n4/nowait/exact", 0xeef7eed6c37b811bull},
    {"mb4/n4/nowait/approx", 0x774afc2c5fb006a9ull},
    {"mb4/n4/waitdie/exact", 0x34d0f951643c88ebull},
    {"mb4/n4/waitdie/approx", 0x8f328227b5809a5full},
    {"mb4/n4/queue/exact", 0xa9faf9afed17e83full},
    {"mb4/n4/queue/approx", 0xe1394a606e3c70faull},
    {"mb4/n12/2pl/exact", 0x2a70d16a786a8f35ull},
    {"mb4/n12/2pl/approx", 0x9053e9e77b016098ull},
    {"mb4/n12/nowait/exact", 0xf20c813eb4e851dcull},
    {"mb4/n12/nowait/approx", 0xc4eac6f5b3863335ull},
    {"mb4/n12/waitdie/exact", 0x414a9a37cf4606ceull},
    {"mb4/n12/waitdie/approx", 0xfb0b0a4479ff4589ull},
    {"mb4/n12/queue/exact", 0xfe4a13c40941cc32ull},
    {"mb4/n12/queue/approx", 0x8b8ba12d1fd676dfull},
    {"mb4/n20/2pl/exact", 0x5303595831c3e5e2ull},
    {"mb4/n20/2pl/approx", 0x0de4033bc8728019ull},
    {"mb4/n20/nowait/exact", 0x066d3c7d1f32e547ull},
    {"mb4/n20/nowait/approx", 0xe9b1fba261751b45ull},
    {"mb4/n20/waitdie/exact", 0xb6dac165ceb52749ull},
    {"mb4/n20/waitdie/approx", 0xb5118296b594ed52ull},
    {"mb4/n20/queue/exact", 0xb0f723b8a9d0eaabull},
    {"mb4/n20/queue/approx", 0xdc937ed08dfe9ef8ull},
    {"mb8/n4/2pl/exact", 0xa826ccee85ee0341ull},
    {"mb8/n4/2pl/approx", 0x40bfd3e22753b10aull},
    {"mb8/n4/nowait/exact", 0x739d2f7d00f3213bull},
    {"mb8/n4/nowait/approx", 0x21291c3d1d42c088ull},
    {"mb8/n4/waitdie/exact", 0x68b5520e27d9ef9bull},
    {"mb8/n4/waitdie/approx", 0xaaafe9378660b450ull},
    {"mb8/n4/queue/exact", 0x44ac529f19f52acbull},
    {"mb8/n4/queue/approx", 0x79a4777baf2a6b2full},
    {"mb8/n12/2pl/exact", 0x001f921f1f62b54aull},
    {"mb8/n12/2pl/approx", 0x156e6a7e32f85dd3ull},
    {"mb8/n12/nowait/exact", 0xbe696d6604c09049ull},
    {"mb8/n12/nowait/approx", 0x4fb1ec40b7e0f743ull},
    {"mb8/n12/waitdie/exact", 0x955baf6a1664fb20ull},
    {"mb8/n12/waitdie/approx", 0x760c1526d0866b19ull},
    {"mb8/n12/queue/exact", 0xc3021d1cbb211a32ull},
    {"mb8/n12/queue/approx", 0x2e4069560f66054eull},
    {"mb8/n20/2pl/exact", 0xad0b5070af74272full},
    {"mb8/n20/2pl/approx", 0xebdadc65f3773c4eull},
    {"mb8/n20/nowait/exact", 0x2b30c79b25b45285ull},
    {"mb8/n20/nowait/approx", 0xafee8a73ae946b50ull},
    {"mb8/n20/waitdie/exact", 0xff31ccaa1a01c6d1ull},
    {"mb8/n20/waitdie/approx", 0x4ebd07e86005c03aull},
    {"mb8/n20/queue/exact", 0xca12f95be76b1dffull},
    {"mb8/n20/queue/approx", 0x9dd4dac7c86fbc7aull},
    {"ub6/n4/2pl/exact", 0x0564b4291bb89f21ull},
    {"ub6/n4/2pl/approx", 0xf1b2c1b3e597360full},
    {"ub6/n4/nowait/exact", 0x3dc4b706c6da91fdull},
    {"ub6/n4/nowait/approx", 0xecfd2c67d4b0a31eull},
    {"ub6/n4/waitdie/exact", 0x5b2b8edeabdd00b3ull},
    {"ub6/n4/waitdie/approx", 0x23d6efa25b3da741ull},
    {"ub6/n4/queue/exact", 0x9730baf145aa2cc9ull},
    {"ub6/n4/queue/approx", 0xb3c49de846dec5daull},
    {"ub6/n12/2pl/exact", 0xb1160c478fd0cb49ull},
    {"ub6/n12/2pl/approx", 0x74e1bf580e07d3c7ull},
    {"ub6/n12/nowait/exact", 0x16505f36e4aa9e0full},
    {"ub6/n12/nowait/approx", 0x622ca04204a4d0beull},
    {"ub6/n12/waitdie/exact", 0x7d43b12abbcbae8eull},
    {"ub6/n12/waitdie/approx", 0x60e6e1558498265dull},
    {"ub6/n12/queue/exact", 0x003ab4d6ee20c639ull},
    {"ub6/n12/queue/approx", 0xebf8e4be4892dea4ull},
    {"ub6/n20/2pl/exact", 0x5263bf84bcdb9c6eull},
    {"ub6/n20/2pl/approx", 0x26d0a6caac187ffdull},
    {"ub6/n20/nowait/exact", 0xa507af615eab9b70ull},
    {"ub6/n20/nowait/approx", 0xecbe7996947219b5ull},
    {"ub6/n20/waitdie/exact", 0x48b9b49d30627a02ull},
    {"ub6/n20/waitdie/approx", 0x7696803962ceca4aull},
    {"ub6/n20/queue/exact", 0x5847fe65e33938bdull},
    {"ub6/n20/queue/approx", 0xac34a2809e9fb609ull},
    {"warm-chain-mb8", 0x91c33a161462fb85ull},
    {"batch4-ub6", 0x4daa0728f9dff12bull},
};

TEST(ModelGolden, ModelSolutionsMatchTheCommittedTable) {
  const std::vector<std::pair<std::string, std::string>> cases =
      Fingerprints();
  EXPECT_EQ(cases.size(), std::size(kGolden));
  std::string table;
  int mismatches = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string& label = cases[i].first;
    EXPECT_EQ(cases[i].second.rfind("ok ", 0), 0u) << label;
    const std::uint64_t hash = Fnv1a64(cases[i].second);
    char line[96];
    std::snprintf(line, sizeof(line), "    {\"%s\", 0x%016llxull},\n",
                  label.c_str(), static_cast<unsigned long long>(hash));
    table += line;
    if (i >= std::size(kGolden)) {
      ++mismatches;
      continue;
    }
    EXPECT_EQ(label, kGolden[i].label);
    if (hash != kGolden[i].hash) {
      ++mismatches;
      ADD_FAILURE() << label << ": fingerprint hash " << std::hex << hash
                    << " != golden " << kGolden[i].hash;
    }
  }
  EXPECT_EQ(mismatches, 0) << "observed table:\n" << table;
}

}  // namespace
}  // namespace carat

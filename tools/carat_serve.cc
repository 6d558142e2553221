// carat_serve - interactive/batch what-if query server over stdin.
//
// Reads newline-delimited query specs, schedules each on a
// serve::SolverService as it is read, and streams one result line per query
// in input order:
//
//   $ printf 'mb4 4\nmb4 8\nmb4 8\n' | carat_serve --stats
//   mb4,4,ok,converged,18,cold,38.1934,305.55
//   mb4,8,ok,converged,24,cold,63.0561,504.45
//   mb4,8,ok,converged,24,cold,63.0561,504.45     <- served from cache
//
// The query grammar and the result line are serve::ParseQuery /
// serve::FormatResult (src/serve/query.h) — shared with the TCP front-end
// (tools/carat_served), which therefore answers byte-identically.
//
// Flags:
//   --jobs N     worker threads (omitted: one per hardware thread; N >= 1)
//   --no-cache   disable the solution cache (every query solves)
//   --no-warm    disable nearest-neighbor warm starting (all solves cold)
//   --strict     abort on the first malformed line instead of skipping it
//   --stats      print service counters to stderr at EOF
//
// Exit status: 0 only when every input line parsed; a malformed line exits
// 1 (immediately under --strict, after the remaining queries otherwise).
//
// Lines are answered in order but solved concurrently: a slow query does not
// block the workers, only the output position.

#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <iostream>
#include <string>
#include <utility>

#include "serve/query.h"
#include "serve/solver_service.h"
#include "util/cli.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: carat_serve [--jobs N] [--no-cache] [--no-warm] "
               "[--strict] [--stats]\n"
               "stdin:  <workload> <n> [think=MS] [comm=MS] [mva=exact|approx]"
               "   per line\n");
  return 2;
}

void PrintResult(const carat::serve::Query& query,
                 const carat::model::ModelSolution& m) {
  const std::string line = carat::serve::FormatResult(query, m);
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace carat;
  serve::SolverService::Options sopts;
  bool print_stats = false;
  bool strict = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      int jobs = 0;
      if (!util::ParseJobs(argv[++i], &jobs)) {
        std::fprintf(stderr,
                     "--jobs: expected a positive integer, got '%s' "
                     "(omit --jobs for one worker per hardware thread)\n",
                     argv[i]);
        return Usage();
      }
      sopts.threads = static_cast<std::size_t>(jobs);
    } else if (arg == "--no-cache") {
      sopts.use_cache = false;
    } else if (arg == "--no-warm") {
      sopts.warm_start = false;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      return Usage();
    }
  }

  const model::SolverOptions solver_base = sopts.solver;
  serve::SolverService service(std::move(sopts));

  // Pending results, in input order. After each new submission, drain every
  // already-finished future at the front so output streams while later
  // queries are still being read or solved.
  std::deque<std::pair<serve::Query, std::future<model::ModelSolution>>>
      pending;
  const auto drain_ready = [&pending](bool block) {
    while (!pending.empty()) {
      std::future<model::ModelSolution>& f = pending.front().second;
      if (!block &&
          f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        return;
      }
      PrintResult(pending.front().first, f.get());
      pending.pop_front();
    }
  };

  std::string line;
  std::size_t line_no = 0;
  bool input_error = false;
  while (std::getline(std::cin, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    serve::Query query;
    model::ModelInput input;
    std::string error;
    if (!serve::ParseQuery(line, &query, &input, &error)) {
      std::fprintf(stderr, "line %zu: %s\n", line_no, error.c_str());
      input_error = true;
      if (strict) break;
      continue;
    }
    if (query.use_exact_mva.has_value()) {
      model::SolverOptions solver = solver_base;
      solver.use_exact_mva = *query.use_exact_mva;
      pending.emplace_back(std::move(query),
                           service.Submit(std::move(input), solver));
    } else {
      pending.emplace_back(std::move(query),
                           service.Submit(std::move(input)));
    }
    drain_ready(/*block=*/false);
  }
  drain_ready(/*block=*/true);

  if (print_stats) {
    const serve::ServiceStats stats = service.stats();
    std::fprintf(
        stderr,
        "submitted=%llu cache_hits=%llu coalesced=%llu solved=%llu "
        "warm_started=%llu total_iterations=%llu cache_evictions=%llu "
        "cache_expirations=%llu batched=%llu batch_blocks=%llu "
        "batch_scalar_tail=%llu\n",
        static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.coalesced),
        static_cast<unsigned long long>(stats.solved),
        static_cast<unsigned long long>(stats.warm_started),
        static_cast<unsigned long long>(stats.total_iterations),
        static_cast<unsigned long long>(stats.cache_evictions),
        static_cast<unsigned long long>(stats.cache_expirations),
        static_cast<unsigned long long>(stats.batched),
        static_cast<unsigned long long>(stats.batch_blocks),
        static_cast<unsigned long long>(stats.batch_scalar_tail));
  }
  return input_error ? 1 : 0;
}

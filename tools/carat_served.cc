// carat_served - the network serving front-end: rpc::TcpServer over a
// serve::SolverService, with graceful drain on SIGINT/SIGTERM.
//
//   $ carat_served --listen 127.0.0.1:7411 --jobs 4 --max-inflight 256 &
//   $ printf 'q1 mb4 8\nq2 STATS\n' | nc 127.0.0.1 7411
//   q1 mb4,8,ok,converged,24,cold,63.0561,504.45
//   q2 STATS accepted=1 active=1 submitted=1 completed=1 ...
//
// See src/rpc/tcp_server.h for the wire protocol (per-request ids,
// deadline_ms, BUSY admission rejects, STATS counters) and README
// "Network serving" for examples.
//
// Flags:
//   --listen HOST:PORT   numeric IPv4 bind address (default 127.0.0.1:7411;
//                        port 0 binds an ephemeral port, printed on stderr)
//   --jobs N             solver/dispatch workers (omitted: one per hardware
//                        thread)
//   --reactors N         event-loop threads, sharded over the listen port
//                        via SO_REUSEPORT (default 1)
//   --max-inflight M     admission bound; further requests answer BUSY
//                        (default 256)
//   --idle-timeout-ms T  close connections idle longer than T (default
//                        60000; 0 disables)
//   --framing MODE       "text" refuses the 0x00 binary-framing negotiation
//                        byte; "binary" (the default) accepts it — text
//                        connections work either way
//   --no-cache / --no-warm   as in carat_serve
//
// On SIGINT/SIGTERM the server stops accepting, finishes every admitted
// request, flushes all responses, and exits 0.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include <unistd.h>

#include "exec/thread_pool.h"
#include "rpc/tcp_server.h"
#include "serve/solver_service.h"
#include "util/cli.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: carat_served [--listen HOST:PORT] [--jobs N] "
               "[--reactors N]\n"
               "                    [--max-inflight M] [--idle-timeout-ms T] "
               "[--framing text|binary]\n"
               "                    [--no-cache] [--no-warm]\n");
  return 2;
}

// Signal handling via the self-pipe trick: the handler only writes a byte;
// the main thread blocks on the pipe and runs the graceful drain.
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int /*signo*/) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace carat;

  std::string host = "127.0.0.1";
  int port = 7411;
  int jobs = 0;
  serve::SolverService::Options sopts;
  rpc::TcpServer::Options ropts;
  ropts.idle_timeout_ms = 60'000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      if (!util::ParseHostPort(argv[++i], &host, &port)) {
        std::fprintf(stderr, "--listen: expected HOST:PORT, got '%s'\n",
                     argv[i]);
        return Usage();
      }
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!util::ParseJobs(argv[++i], &jobs)) {
        std::fprintf(stderr,
                     "--jobs: expected a positive integer, got '%s' "
                     "(omit --jobs for one worker per hardware thread)\n",
                     argv[i]);
        return Usage();
      }
    } else if (arg == "--reactors" && i + 1 < argc) {
      int reactors = 0;
      if (!util::ParseJobs(argv[++i], &reactors)) {
        std::fprintf(stderr,
                     "--reactors: expected a positive integer, got '%s'\n",
                     argv[i]);
        return Usage();
      }
      ropts.reactors = static_cast<std::size_t>(reactors);
    } else if (arg == "--framing" && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "text") {
        ropts.enable_binary_framing = false;
      } else if (mode == "binary") {
        ropts.enable_binary_framing = true;
      } else {
        std::fprintf(stderr, "--framing: expected 'text' or 'binary', got "
                             "'%s'\n",
                     mode.c_str());
        return Usage();
      }
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      int inflight = 0;
      if (!util::ParseJobs(argv[++i], &inflight)) {
        std::fprintf(stderr,
                     "--max-inflight: expected a positive integer, got "
                     "'%s'\n",
                     argv[i]);
        return Usage();
      }
      ropts.max_inflight = static_cast<std::size_t>(inflight);
    } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
      char* end = nullptr;
      const long t = std::strtol(argv[++i], &end, 10);
      if (*argv[i] == '\0' || *end != '\0' || t < 0 || t > 86'400'000) {
        std::fprintf(stderr,
                     "--idle-timeout-ms: expected an integer in "
                     "[0, 86400000], got '%s'\n",
                     argv[i]);
        return Usage();
      }
      ropts.idle_timeout_ms = static_cast<int>(t);
    } else if (arg == "--no-cache") {
      sopts.use_cache = false;
    } else if (arg == "--no-warm") {
      sopts.warm_start = false;
    } else {
      return Usage();
    }
  }

  exec::ThreadPool pool(jobs <= 0 ? 0 : static_cast<std::size_t>(jobs));
  sopts.pool = &pool;  // SolveSync runs on the server's dispatch workers
  serve::SolverService service(std::move(sopts));

  ropts.host = host;
  ropts.port = static_cast<std::uint16_t>(port);
  ropts.service = &service;
  ropts.pool = &pool;
  rpc::TcpServer server(std::move(ropts));

  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "carat_served: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "carat_served: listening on %s:%u (%zu workers, %zu "
               "reactor%s)\n",
               host.c_str(), static_cast<unsigned>(server.port()), pool.size(),
               server.options().reactors,
               server.options().reactors == 1 ? "" : "s");

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "carat_served: pipe failed\n");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "carat_served: draining (%llu in flight)...\n",
               static_cast<unsigned long long>(
                   server.stats().requests_submitted -
                   server.stats().requests_completed -
                   server.stats().requests_timed_out));
  server.Shutdown();

  const rpc::ServerStats stats = server.stats();
  std::fprintf(
      stderr,
      "carat_served: done. accepted=%llu submitted=%llu completed=%llu "
      "rejected=%llu timed_out=%llu p50_ms=%.3f p99_ms=%.3f\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.requests_submitted),
      static_cast<unsigned long long>(stats.requests_completed),
      static_cast<unsigned long long>(stats.requests_rejected),
      static_cast<unsigned long long>(stats.requests_timed_out),
      server.LatencyPercentileMs(50.0), server.LatencyPercentileMs(99.0));
  return 0;
}

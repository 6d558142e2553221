// One CARAT site as an OS process.
//
// The daemon owns a site's SiteEngine plus its network face, one
// rpc::ConnectionSet: the mesh listen socket (peers and load generators
// connect here), the links it dials to higher-indexed peers, and the
// control link *to* the coordinator (child dials parent, so the coordinator
// never parses ports from pipes — the HELLO message carries the mesh port).
// The process has one thread, the engine's loop; every step below is a
// frame handler or a kernel event, never a blocking wait.
//
// Startup handshake (see dist/wire.h for the message set):
//   1. bind the mesh port, dial the coordinator, send HELLO.
//   2. receive CONFIG, build the engine.
//   3. receive PEERS; dial every higher-indexed site (SITE i identifies us)
//      and accept SITE claims from the lower-indexed ones only.
//   4. measure each outgoing link's RTT with PING/PONG round trips; once
//      every lower-indexed site has dialed in and every outgoing link is
//      measured, report the medians' sum via ALPHA (each unordered pair is
//      measured exactly once, by its lower side).
//   5. on START: run users for the real-time warm-up + measurement window,
//      timed by kernel events, then report DRAINED when the last user has
//      stopped; on FINISH: REPORT once no slave leg is in flight (or the
//      drain timeout passed); on SHUTDOWN: tear down and exit.
//
// The process exits non-zero with a message when it loses its control link,
// loses a mesh link before ALPHA, or fails a link itself (its peer stopped
// reading). A peer lost later is only logged: the coordinator sees the dead
// site's control link close, DUMPs the survivors and ends the run.

#ifndef CARAT_DIST_SITE_DAEMON_H_
#define CARAT_DIST_SITE_DAEMON_H_

#include <string>

namespace carat::dist {

struct SiteDaemonOptions {
  std::string coordinator_host = "127.0.0.1";
  int coordinator_port = 0;
  int site = 0;
  /// Concurrency-control backend this daemon runs (2pl | nowait | waitdie |
  /// queue). Reported in HELLO and echoed in DUMP; the coordinator rejects
  /// the mesh when any site's backend disagrees with the configured one,
  /// and the daemon refuses a CONFIG naming a different backend.
  std::string cc = "2pl";
};

/// Runs the site daemon until SHUTDOWN (or a protocol/connect failure).
/// Returns a process exit code; failures are described on stderr.
int RunSiteDaemon(const SiteDaemonOptions& options);

}  // namespace carat::dist

#endif  // CARAT_DIST_SITE_DAEMON_H_

// Wire message vocabulary for the distributed testbed.
//
// All messages ride rpc's length-prefixed binary framing (rpc/framing.h);
// the frame id is 0 on site-to-site and control links (correlation is by
// the global transaction id inside the payload) and the caller's request
// index on load-generator links (TXN / TXN_K). Payloads are space-separated
// ASCII tokens, verb first:
//
//   control (site <-> coordinator, site connects):
//     HELLO site=<i> port=<mesh port> cc=<backend>   site -> coordinator
//       (cc names the site's concurrency-control backend; the coordinator
//       rejects meshes whose sites disagree with the configured backend)
//     CONFIG <DistConfig key=value tokens>     coordinator -> site
//     PEERS <host:port> ...                    coordinator -> site (by index)
//     ALPHA rtt_ms=<median real RTT>           site -> coordinator
//     START warmup_ms=<real> measure_ms=<real> coordinator -> site
//     DRAINED site=<i>                         site -> coordinator
//     FINISH                                   coordinator -> site
//     REPORT <key=value tokens>                site -> coordinator
//     SHUTDOWN                                 coordinator -> site
//
//   mesh (site <-> site, lower index connects to higher):
//     SITE <i>                       identifies the connecting site
//     PING <t> / PONG <t>            alpha measurement round trips (t = the
//                                    sender's send time, echoed)
//     The txn::Leg and txn::Probe messages of txn::SiteProtocol
//     (dist/engine.cc encodes and decodes them; type = the coordinator's):
//     REMDO <gid> <type> <first> <r1,r2,..> [<u1,u2,..>]
//                                    remote request; first = 1 assigns the
//                                    slave DM, u.. = the queue backend's
//                                    upfront records at the slave
//     REMDO_K <gid> <0|1>            remote request done (0 = victim)
//     PREPARE <gid> <type> / VOTE <gid>      2PC phase 1
//     COMMIT <gid> <type> / COMMIT_K <gid>   2PC phase 2
//     TABORT <gid> <type> / ABORT_K <gid>    global abort leg
//     PROBE <initiator> <initiator_site> <target> <hops> <max_gid> <0|1>
//                                    probe step (0 = relay at the target's
//                                    home, 1 = evaluate where it runs)
//     VICTIM <gid>                   global deadlock: cancel gid's wait
//
//   client (load generator -> any site's mesh port):
//     TXN <LRO|LU|DRO|DU> <requests>                  frame id = request index
//     TXN_K <gid> <commits> <retries> <response_vms>  echoes the frame id

#ifndef CARAT_DIST_WIRE_H_
#define CARAT_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "model/params.h"
#include "workload/spec.h"

namespace carat::dist::wire {

/// Sequential token reader over a space-separated payload.
class TokenReader {
 public:
  explicit TokenReader(std::string_view body) : body_(body) {}

  /// Next token; false at end of payload.
  bool Next(std::string_view* token);
  bool NextU64(std::uint64_t* value);
  bool NextInt(int* value);
  bool NextDouble(double* value);

 private:
  std::string_view body_;
  std::size_t pos_ = 0;
};

/// Appends " key=value" (exact round-trip for doubles via %.17g).
void AppendKv(std::string* out, std::string_view key, std::string_view value);
void AppendKv(std::string* out, std::string_view key, std::int64_t value);
void AppendKv(std::string* out, std::string_view key, std::uint64_t value);
void AppendKv(std::string* out, std::string_view key, double value);

/// Parses "k=v" tokens into a map; tokens without '=' are skipped.
std::unordered_map<std::string, std::string> ParseKv(std::string_view body);

/// Typed lookups into a ParseKv map; false (and untouched output) when the
/// key is missing or malformed.
bool KvU64(const std::unordered_map<std::string, std::string>& kv,
           const std::string& key, std::uint64_t* value);
bool KvInt(const std::unordered_map<std::string, std::string>& kv,
           const std::string& key, int* value);
bool KvDouble(const std::unordered_map<std::string, std::string>& kv,
              const std::string& key, double* value);

/// Renders record ids as "r1,r2,...", and back.
std::string JoinRecords(const std::vector<db::RecordId>& records);
bool SplitRecords(std::string_view token, std::vector<db::RecordId>* records);

/// Everything a site process needs to reconstruct the workload: the named
/// paper workload plus the overridable sizing knobs. Shipped in CONFIG.
struct DistConfig {
  std::string workload = "mb8";  ///< lb8 | mb4 | mb8 | ub6
  std::string cc = "2pl";        ///< cc backend: 2pl | nowait | waitdie | queue
  int requests_per_txn = 8;      ///< n
  int sites = 2;
  int num_granules = 3000;
  int records_per_granule = 6;
  int dm_pool_size = 0;
  double think_time_ms = 0.0;
  std::uint64_t seed = 1;
  double scale = 0.1;  ///< real ms per virtual ms
  bool spawn_users = true;

  std::string Encode() const;  ///< "key=value ..." (no verb)
  static bool Decode(std::string_view body, DistConfig* out,
                     std::string* error);

  /// The workload spec with this config's overrides applied.
  workload::WorkloadSpec ToSpec() const;
  model::ModelInput ToModelInput() const { return ToSpec().ToModelInput(); }
};

/// Mesh homogeneity guard: every site's HELLO-reported CC backend must equal
/// the coordinator's configured backend — the mesh executes one global
/// protocol, so a mixed mesh is a configuration error, not a degraded mode.
/// Returns "" when the mesh is consistent, else a human-readable error
/// naming the first offending site.
std::string CheckMeshBackends(const std::vector<std::string>& site_cc,
                              const std::string& config_cc);

}  // namespace carat::dist::wire

#endif  // CARAT_DIST_WIRE_H_

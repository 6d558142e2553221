#include "dist/wire.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cc/cc.h"

namespace carat::dist::wire {

bool TokenReader::Next(std::string_view* token) {
  while (pos_ < body_.size() && body_[pos_] == ' ') ++pos_;
  if (pos_ >= body_.size()) return false;
  const std::size_t start = pos_;
  while (pos_ < body_.size() && body_[pos_] != ' ') ++pos_;
  *token = body_.substr(start, pos_ - start);
  return true;
}

bool TokenReader::NextU64(std::uint64_t* value) {
  std::string_view token;
  if (!Next(&token)) return false;
  char* end = nullptr;
  const std::string copy(token);
  *value = std::strtoull(copy.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !copy.empty();
}

bool TokenReader::NextInt(int* value) {
  std::string_view token;
  if (!Next(&token)) return false;
  char* end = nullptr;
  const std::string copy(token);
  const long v = std::strtol(copy.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || copy.empty()) return false;
  *value = static_cast<int>(v);
  return true;
}

bool TokenReader::NextDouble(double* value) {
  std::string_view token;
  if (!Next(&token)) return false;
  char* end = nullptr;
  const std::string copy(token);
  *value = std::strtod(copy.c_str(), &end);
  return end != nullptr && *end == '\0' && !copy.empty();
}

void AppendKv(std::string* out, std::string_view key, std::string_view value) {
  out->push_back(' ');
  out->append(key);
  out->push_back('=');
  out->append(value);
}

void AppendKv(std::string* out, std::string_view key, std::int64_t value) {
  AppendKv(out, key, std::string_view(std::to_string(value)));
}

void AppendKv(std::string* out, std::string_view key, std::uint64_t value) {
  AppendKv(out, key, std::string_view(std::to_string(value)));
}

void AppendKv(std::string* out, std::string_view key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  AppendKv(out, key, std::string_view(buf));
}

std::unordered_map<std::string, std::string> ParseKv(std::string_view body) {
  std::unordered_map<std::string, std::string> kv;
  TokenReader reader(body);
  std::string_view token;
  while (reader.Next(&token)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) continue;
    kv.emplace(std::string(token.substr(0, eq)),
               std::string(token.substr(eq + 1)));
  }
  return kv;
}

bool KvU64(const std::unordered_map<std::string, std::string>& kv,
           const std::string& key, std::uint64_t* value) {
  const auto it = kv.find(key);
  if (it == kv.end() || it->second.empty()) return false;
  char* end = nullptr;
  *value = std::strtoull(it->second.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool KvInt(const std::unordered_map<std::string, std::string>& kv,
           const std::string& key, int* value) {
  const auto it = kv.find(key);
  if (it == kv.end() || it->second.empty()) return false;
  char* end = nullptr;
  const long parsed = std::strtol(it->second.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *value = static_cast<int>(parsed);
  return true;
}

bool KvDouble(const std::unordered_map<std::string, std::string>& kv,
              const std::string& key, double* value) {
  const auto it = kv.find(key);
  if (it == kv.end() || it->second.empty()) return false;
  char* end = nullptr;
  *value = std::strtod(it->second.c_str(), &end);
  return end != nullptr && *end == '\0';
}

std::string JoinRecords(const std::vector<db::RecordId>& records) {
  std::string out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(records[i]);
  }
  return out;
}

bool SplitRecords(std::string_view token, std::vector<db::RecordId>* records) {
  records->clear();
  std::size_t pos = 0;
  while (pos <= token.size()) {
    std::size_t comma = token.find(',', pos);
    if (comma == std::string_view::npos) comma = token.size();
    const std::string part(token.substr(pos, comma - pos));
    if (part.empty()) return false;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(part.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    records->push_back(static_cast<db::RecordId>(v));
    pos = comma + 1;
    if (comma == token.size()) break;
  }
  return !records->empty();
}

std::string DistConfig::Encode() const {
  std::string out;
  AppendKv(&out, "workload", std::string_view(workload));
  AppendKv(&out, "cc", std::string_view(cc));
  AppendKv(&out, "n", static_cast<std::int64_t>(requests_per_txn));
  AppendKv(&out, "sites", static_cast<std::int64_t>(sites));
  AppendKv(&out, "granules", static_cast<std::int64_t>(num_granules));
  AppendKv(&out, "rpg", static_cast<std::int64_t>(records_per_granule));
  AppendKv(&out, "dm_pool", static_cast<std::int64_t>(dm_pool_size));
  AppendKv(&out, "think_ms", think_time_ms);
  AppendKv(&out, "seed", seed);
  AppendKv(&out, "scale", scale);
  AppendKv(&out, "users", static_cast<std::int64_t>(spawn_users ? 1 : 0));
  return out;
}

bool DistConfig::Decode(std::string_view body, DistConfig* out,
                        std::string* error) {
  const auto kv = ParseKv(body);
  DistConfig config;
  const auto it = kv.find("workload");
  if (it == kv.end()) {
    *error = "CONFIG missing workload";
    return false;
  }
  config.workload = it->second;
  // `cc` is optional on the wire (pre-backend coordinators never send it and
  // mean 2PL), but when present it must name a known backend.
  const auto cc_it = kv.find("cc");
  if (cc_it != kv.end()) config.cc = cc_it->second;
  cc::BackendKind cc_kind;
  if (!cc::ParseBackend(config.cc, &cc_kind)) {
    *error = "CONFIG unknown cc backend '" + config.cc + "'";
    return false;
  }
  int users = 1;
  const bool ok = KvInt(kv, "n", &config.requests_per_txn) &&
                  KvInt(kv, "sites", &config.sites) &&
                  KvInt(kv, "granules", &config.num_granules) &&
                  KvInt(kv, "rpg", &config.records_per_granule) &&
                  KvInt(kv, "dm_pool", &config.dm_pool_size) &&
                  KvDouble(kv, "think_ms", &config.think_time_ms) &&
                  KvU64(kv, "seed", &config.seed) &&
                  KvDouble(kv, "scale", &config.scale) &&
                  KvInt(kv, "users", &users);
  if (!ok) {
    *error = "CONFIG field missing or malformed";
    return false;
  }
  config.spawn_users = users != 0;
  if (config.sites < 1 || config.scale <= 0.0 || config.num_granules < 1 ||
      config.records_per_granule < 1 || config.requests_per_txn < 1) {
    *error = "CONFIG values out of range";
    return false;
  }
  *out = config;
  return true;
}

workload::WorkloadSpec DistConfig::ToSpec() const {
  workload::WorkloadSpec spec;
  if (workload == "lb8") {
    spec = workload::MakeLB8(requests_per_txn, sites);
  } else if (workload == "mb4") {
    spec = workload::MakeMB4(requests_per_txn, sites);
  } else if (workload == "ub6") {
    spec = workload::MakeUB6(requests_per_txn, sites);
  } else {
    spec = workload::MakeMB8(requests_per_txn, sites);
  }
  spec.num_granules = num_granules;
  spec.records_per_granule = records_per_granule;
  spec.dm_pool_size = dm_pool_size;
  spec.think_time_ms = think_time_ms;
  cc::ParseBackend(cc, &spec.cc_backend);  // Decode validated the name
  return spec;
}

std::string CheckMeshBackends(const std::vector<std::string>& site_cc,
                              const std::string& config_cc) {
  for (std::size_t i = 0; i < site_cc.size(); ++i) {
    if (site_cc[i] == config_cc) continue;
    return "mixed-backend mesh: site " + std::to_string(i) + " runs cc=" +
           site_cc[i] + " but the coordinator configured cc=" + config_cc +
           "; every site must run the same concurrency-control backend";
  }
  return "";
}

}  // namespace carat::dist::wire

#include "fuzz/scenario.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "cc/cc.h"

namespace carat::fuzz {

namespace {

using model::ClassParams;
using model::SiteParams;
using model::TxnType;

bool ParseTxnType(const std::string& name, TxnType* out) {
  for (TxnType t : model::kAllTxnTypes) {
    if (name == model::Name(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

void AppendDouble(std::string* out, const char* key, double v) {
  char buf[96];
  // Hex-float for the parser, shortest decimal as a comment for the human.
  std::snprintf(buf, sizeof(buf), "%s %a # %.12g\n", key, v, v);
  *out += buf;
}

void AppendInt(std::string* out, const char* key, long long v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %lld\n", key, v);
  *out += buf;
}

void AppendU64(std::string* out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", key, v);
  *out += buf;
}

// --- fingerprint helpers (same rendering as TestbedResultFingerprint) ------

void AppendBitsF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 " ", bits);
  *out += buf;
}

void AppendHexU64(std::string* out, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 " ", v);
  *out += buf;
}

}  // namespace

std::string FormatHexDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool ParseHexDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  *out = v;
  return true;
}

std::string Serialize(const Scenario& s) {
  std::string out;
  out += "carat-scenario v1\n";
  out += "name " + s.name + "\n";
  AppendU64(&out, "testbed_seed", s.testbed_seed);
  AppendDouble(&out, "warmup_ms", s.warmup_ms);
  AppendDouble(&out, "measure_ms", s.measure_ms);
  AppendDouble(&out, "comm_delay_ms", s.input.comm_delay_ms);
  // Only non-default backends are emitted, so pre-backend corpus files
  // still round-trip byte for byte.
  if (s.input.cc_backend != cc::BackendKind::k2PL) {
    out += "cc ";
    out += cc::Name(s.input.cc_backend);
    out += '\n';
  }
  if (s.input.restart_backoff_ms != cc::kRestartBackoffMeanMs)
    AppendDouble(&out, "restart_backoff_ms", s.input.restart_backoff_ms);
  AppendInt(&out, "sites", static_cast<long long>(s.input.sites.size()));
  for (std::size_t i = 0; i < s.input.sites.size(); ++i) {
    const SiteParams& site = s.input.sites[i];
    out += "site " + std::to_string(i) + " " + site.name + "\n";
    AppendInt(&out, "num_granules", site.num_granules);
    AppendInt(&out, "records_per_granule", site.records_per_granule);
    AppendDouble(&out, "block_io_ms", site.block_io_ms);
    AppendInt(&out, "separate_log_disk", site.separate_log_disk ? 1 : 0);
    AppendDouble(&out, "think_time_ms", site.think_time_ms);
    AppendDouble(&out, "hot_data_fraction", site.hot_data_fraction);
    AppendDouble(&out, "hot_access_fraction", site.hot_access_fraction);
    AppendInt(&out, "buffer_blocks", site.buffer_blocks);
    AppendInt(&out, "dm_pool_size", site.dm_pool_size);
    for (TxnType t : model::kAllTxnTypes) {
      const ClassParams& c = site.Class(t);
      if (c.population == 0) continue;  // never read by solver or testbed
      out += "class ";
      out += model::Name(t);
      out += '\n';
      AppendInt(&out, "population", c.population);
      AppendInt(&out, "local_requests", c.local_requests);
      AppendInt(&out, "remote_requests", c.remote_requests);
      AppendInt(&out, "records_per_request", c.records_per_request);
      AppendDouble(&out, "u_cpu_ms", c.u_cpu_ms);
      AppendDouble(&out, "tm_cpu_ms", c.tm_cpu_ms);
      AppendDouble(&out, "dm_cpu_ms", c.dm_cpu_ms);
      AppendDouble(&out, "lr_cpu_ms", c.lr_cpu_ms);
      AppendDouble(&out, "dmio_cpu_ms", c.dmio_cpu_ms);
      AppendDouble(&out, "dmio_disk_ms", c.dmio_disk_ms);
      AppendDouble(&out, "dmio_read_ios", c.dmio_read_ios);
      AppendDouble(&out, "dmio_write_ios", c.dmio_write_ios);
      AppendDouble(&out, "init_cpu_ms", c.init_cpu_ms);
      AppendDouble(&out, "tc_cpu_ms", c.tc_cpu_ms);
      AppendDouble(&out, "tcio_force_writes", c.tcio_force_writes);
      AppendDouble(&out, "ta_fixed_cpu_ms", c.ta_fixed_cpu_ms);
      AppendDouble(&out, "ta_cpu_per_granule_ms", c.ta_cpu_per_granule_ms);
      AppendDouble(&out, "taio_ios_per_granule", c.taio_ios_per_granule);
      AppendDouble(&out, "unlock_cpu_per_lock_ms", c.unlock_cpu_per_lock_ms);
    }
  }
  out += "end\n";
  return out;
}

namespace {

// Splits a line into "key" and "rest", dropping '#' comments and surrounding
// whitespace. Returns false for blank / comment-only lines.
bool SplitLine(const std::string& line, std::string* key, std::string* rest) {
  std::string body = line;
  if (const auto hash = body.find('#'); hash != std::string::npos)
    body.resize(hash);
  std::istringstream in(body);
  if (!(in >> *key)) return false;
  std::string tail;
  std::getline(in, tail);
  const auto start = tail.find_first_not_of(" \t");
  const auto stop = tail.find_last_not_of(" \t\r");
  *rest = start == std::string::npos
              ? std::string()
              : tail.substr(start, stop - start + 1);
  return true;
}

bool ParseI64(const std::string& s, long long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

bool Parse(const std::string& text, Scenario* out, std::string* error) {
  Scenario s;
  std::istringstream in(text);
  std::string line, key, rest;
  int line_no = 0;
  bool saw_header = false, saw_end = false;
  SiteParams* site = nullptr;    // current `site` section
  ClassParams* cls = nullptr;    // current `class` section within the site
  long long declared_sites = -1;

  auto fail = [&](const std::string& why) {
    if (error != nullptr)
      *error = "line " + std::to_string(line_no) + ": " + why;
    return false;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (!SplitLine(line, &key, &rest)) continue;
    if (saw_end) return fail("content after end");
    if (!saw_header) {
      if (key != "carat-scenario" || rest != "v1")
        return fail("expected 'carat-scenario v1' header");
      saw_header = true;
      continue;
    }
    if (key == "end") {
      saw_end = true;
      continue;
    }

    // Section openers.
    if (key == "site") {
      std::istringstream f(rest);
      long long idx = -1;
      std::string site_name;
      if (!(f >> idx) || idx != static_cast<long long>(s.input.sites.size()))
        return fail("site sections must appear in order 0..n-1");
      f >> site_name;  // optional; defaults below
      if (declared_sites >= 0 && idx >= declared_sites)
        return fail("more site sections than declared by 'sites'");
      s.input.sites.emplace_back();
      site = &s.input.sites.back();
      site->name = site_name.empty()
                       ? "Site-" + std::to_string(idx)
                       : site_name;
      cls = nullptr;
      continue;
    }
    if (key == "class") {
      if (site == nullptr) return fail("class outside a site section");
      TxnType t;
      if (!ParseTxnType(rest, &t)) return fail("unknown class '" + rest + "'");
      cls = &site->Class(t);
      continue;
    }

    // Scalar keys, dispatched by section.
    auto want_i64 = [&](long long* dst) {
      long long v;
      if (!ParseI64(rest, &v)) return fail("bad integer '" + rest + "'");
      *dst = v;
      return true;
    };
    auto want_int = [&](int* dst) {
      long long v;
      if (!ParseI64(rest, &v)) return fail("bad integer '" + rest + "'");
      *dst = static_cast<int>(v);
      return true;
    };
    auto want_f64 = [&](double* dst) {
      double v;
      if (!ParseHexDouble(rest, &v)) return fail("bad number '" + rest + "'");
      *dst = v;
      return true;
    };

    if (cls != nullptr) {
      if (key == "population") { if (!want_int(&cls->population)) return false; }
      else if (key == "local_requests") { if (!want_int(&cls->local_requests)) return false; }
      else if (key == "remote_requests") { if (!want_int(&cls->remote_requests)) return false; }
      else if (key == "records_per_request") { if (!want_int(&cls->records_per_request)) return false; }
      else if (key == "u_cpu_ms") { if (!want_f64(&cls->u_cpu_ms)) return false; }
      else if (key == "tm_cpu_ms") { if (!want_f64(&cls->tm_cpu_ms)) return false; }
      else if (key == "dm_cpu_ms") { if (!want_f64(&cls->dm_cpu_ms)) return false; }
      else if (key == "lr_cpu_ms") { if (!want_f64(&cls->lr_cpu_ms)) return false; }
      else if (key == "dmio_cpu_ms") { if (!want_f64(&cls->dmio_cpu_ms)) return false; }
      else if (key == "dmio_disk_ms") { if (!want_f64(&cls->dmio_disk_ms)) return false; }
      else if (key == "dmio_read_ios") { if (!want_f64(&cls->dmio_read_ios)) return false; }
      else if (key == "dmio_write_ios") { if (!want_f64(&cls->dmio_write_ios)) return false; }
      else if (key == "init_cpu_ms") { if (!want_f64(&cls->init_cpu_ms)) return false; }
      else if (key == "tc_cpu_ms") { if (!want_f64(&cls->tc_cpu_ms)) return false; }
      else if (key == "tcio_force_writes") { if (!want_f64(&cls->tcio_force_writes)) return false; }
      else if (key == "ta_fixed_cpu_ms") { if (!want_f64(&cls->ta_fixed_cpu_ms)) return false; }
      else if (key == "ta_cpu_per_granule_ms") { if (!want_f64(&cls->ta_cpu_per_granule_ms)) return false; }
      else if (key == "taio_ios_per_granule") { if (!want_f64(&cls->taio_ios_per_granule)) return false; }
      else if (key == "unlock_cpu_per_lock_ms") { if (!want_f64(&cls->unlock_cpu_per_lock_ms)) return false; }
      else return fail("unknown class key '" + key + "'");
      continue;
    }
    if (site != nullptr) {
      if (key == "num_granules") { if (!want_int(&site->num_granules)) return false; }
      else if (key == "records_per_granule") { if (!want_int(&site->records_per_granule)) return false; }
      else if (key == "block_io_ms") { if (!want_f64(&site->block_io_ms)) return false; }
      else if (key == "separate_log_disk") {
        long long v;
        if (!want_i64(&v)) return false;
        site->separate_log_disk = v != 0;
      }
      else if (key == "think_time_ms") { if (!want_f64(&site->think_time_ms)) return false; }
      else if (key == "hot_data_fraction") { if (!want_f64(&site->hot_data_fraction)) return false; }
      else if (key == "hot_access_fraction") { if (!want_f64(&site->hot_access_fraction)) return false; }
      else if (key == "buffer_blocks") { if (!want_int(&site->buffer_blocks)) return false; }
      else if (key == "dm_pool_size") { if (!want_int(&site->dm_pool_size)) return false; }
      else return fail("unknown site key '" + key + "'");
      continue;
    }

    // Header section.
    if (key == "name") {
      if (rest.empty()) return fail("empty name");
      s.name = rest;
    }
    else if (key == "testbed_seed") { if (!ParseU64(rest, &s.testbed_seed)) return fail("bad seed"); }
    else if (key == "warmup_ms") { if (!want_f64(&s.warmup_ms)) return false; }
    else if (key == "measure_ms") { if (!want_f64(&s.measure_ms)) return false; }
    else if (key == "comm_delay_ms") { if (!want_f64(&s.input.comm_delay_ms)) return false; }
    else if (key == "cc") {
      if (!cc::ParseBackend(rest, &s.input.cc_backend))
        return fail("unknown cc backend '" + rest + "'");
    }
    else if (key == "restart_backoff_ms") { if (!want_f64(&s.input.restart_backoff_ms)) return false; }
    else if (key == "sites") { if (!want_i64(&declared_sites)) return false; }
    else return fail("unknown key '" + key + "'");
  }

  if (!saw_header) return fail("missing 'carat-scenario v1' header");
  if (!saw_end) return fail("missing 'end' terminator");
  if (declared_sites >= 0 &&
      declared_sites != static_cast<long long>(s.input.sites.size()))
    return fail("declared " + std::to_string(declared_sites) + " sites, found " +
                std::to_string(s.input.sites.size()));
  std::string verror;
  if (!s.input.Validate(&verror)) return fail("invalid input: " + verror);
  *out = std::move(s);
  return true;
}

std::string ModelSolutionFingerprint(const model::ModelSolution& s) {
  std::string out;
  out += s.ok ? "ok " : "fail ";
  out += s.error;
  out += '\n';
  out += s.converged ? "converged " : "UNCONVERGED ";
  AppendHexU64(&out, static_cast<std::uint64_t>(s.iterations));
  AppendHexU64(&out, static_cast<std::uint64_t>(s.accelerated_steps));
  AppendHexU64(&out, static_cast<std::uint64_t>(s.fallback_steps));
  out += s.warm_started ? "warm " : "cold ";
  AppendBitsF64(&out, s.comm_delay_ms);
  out += '\n';
  for (const model::SiteSolution& site : s.sites) {
    out += site.name;
    out += ' ';
    AppendBitsF64(&out, site.cpu_utilization);
    AppendBitsF64(&out, site.db_disk_utilization);
    AppendBitsF64(&out, site.log_disk_utilization);
    AppendBitsF64(&out, site.dio_per_s);
    AppendBitsF64(&out, site.txn_per_s);
    AppendBitsF64(&out, site.records_per_s);
    for (const model::ClassSolution& c : site.classes) {
      out += c.present ? "+" : "-";
      AppendBitsF64(&out, c.throughput_per_s);
      AppendBitsF64(&out, c.response_ms);
      AppendBitsF64(&out, c.pa);
      AppendBitsF64(&out, c.ns);
      AppendBitsF64(&out, c.pb);
      AppendBitsF64(&out, c.pd);
      AppendBitsF64(&out, c.plw);
      AppendBitsF64(&out, c.lh);
      AppendBitsF64(&out, c.nlk);
      AppendBitsF64(&out, c.sigma);
      AppendBitsF64(&out, c.io_per_request);
      AppendBitsF64(&out, c.r_lw_ms);
      AppendBitsF64(&out, c.r_rw_ms);
      AppendBitsF64(&out, c.r_cw_ms);
      AppendBitsF64(&out, c.d_lw_ms);
      AppendBitsF64(&out, c.d_rw_ms);
      AppendBitsF64(&out, c.d_cw_ms);
    }
    out += '\n';
  }
  return out;
}

}  // namespace carat::fuzz

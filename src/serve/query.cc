#include "serve/query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "cc/cc.h"
#include "workload/spec.h"

namespace carat::serve {

bool ParseQuery(const std::string& line, Query* query,
                model::ModelInput* input, std::string* error) {
  std::istringstream in(line);
  std::string workload;
  long long n = 0;
  if (!(in >> workload >> n) || n <= 0 || n > 1'000'000) {
    *error = "expected '<workload> <n>' with n >= 1";
    return false;
  }
  carat::workload::WorkloadSpec (*make)(int) = nullptr;
  if (workload == "lb8") {
    make = [](int v) { return carat::workload::MakeLB8(v); };
  } else if (workload == "mb4") {
    make = [](int v) { return carat::workload::MakeMB4(v); };
  } else if (workload == "mb8") {
    make = [](int v) { return carat::workload::MakeMB8(v); };
  } else if (workload == "ub6") {
    make = [](int v) { return carat::workload::MakeUB6(v); };
  } else {
    *error = "unknown workload '" + workload + "'";
    return false;
  }
  *input = make(static_cast<int>(n)).ToModelInput();
  query->use_exact_mva.reset();

  std::string kv;
  while (in >> kv) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      *error = "expected key=value, got '" + kv + "'";
      return false;
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    if (key == "mva") {
      if (value == "exact") {
        query->use_exact_mva = true;
      } else if (value == "approx") {
        query->use_exact_mva = false;
      } else {
        *error = "mva= expects 'exact' or 'approx', got '" + value + "'";
        return false;
      }
      continue;
    }
    if (key == "cc") {
      cc::BackendKind kind;
      if (!cc::ParseBackend(value, &kind)) {
        *error = "cc= expects 2pl|nowait|waitdie|queue, got '" + value + "'";
        return false;
      }
      input->cc_backend = kind;
      continue;
    }
    char* end = nullptr;
    const double numeric = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !std::isfinite(numeric) ||
        numeric < 0) {
      *error = "bad value in '" + kv + "'";
      return false;
    }
    if (key == "think") {
      for (model::SiteParams& site : input->sites) {
        site.think_time_ms = numeric;
      }
    } else if (key == "comm") {
      input->comm_delay_ms = numeric;
    } else {
      *error = "unknown key '" + key + "'";
      return false;
    }
  }
  query->workload = std::move(workload);
  query->n = static_cast<int>(n);
  return true;
}

std::string FormatResult(const Query& query, const model::ModelSolution& m) {
  if (!m.ok) {
    std::string out = query.workload;
    out += ',';
    out += std::to_string(query.n);
    out += ",error,,,,,";
    out += m.error;
    return out;
  }
  char buf[192];
  const int len =
      std::snprintf(buf, sizeof(buf), "%s,%d,ok,%s,%d,%s,%.4f,%.2f",
                    query.workload.c_str(), query.n,
                    m.converged ? "converged" : "maxiter", m.iterations,
                    m.warm_started ? "warm" : "cold", m.TotalTxnPerSec(),
                    m.TotalRecordsPerSec());
  if (len < 0) return {};
  return std::string(
      buf, std::min(static_cast<std::size_t>(len), sizeof(buf) - 1));
}

}  // namespace carat::serve

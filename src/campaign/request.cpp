#include "campaign/request.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/errors.h"
#include "uvm/prefetch_policy.h"
#include "workloads/registry.h"
#include "workloads/trace_io.h"

namespace uvmsim::campaign {

namespace {

double parse_rate(const std::string& key, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    throw ConfigError("request." + key, "wants a number, got '" + v + "'");
  }
  return d;
}

/// Deterministic, round-trip-exact double rendering for canonical lines
/// and child argv (so a resumed campaign rebuilds bit-identical requests).
std::string fmt_double(double d) {
  std::ostringstream os;
  os << std::setprecision(17) << d;
  return os.str();
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << v;
  return os.str();
}

}  // namespace

std::uint64_t parse_uint(const std::string& param, const std::string& v,
                         std::uint64_t max) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    throw ConfigError(param,
                      "wants a non-negative integer, got '" + v + "'");
  }
  errno = 0;
  const unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE || n > max) {
    throw ConfigError(param, "wants an integer no greater than " +
                                 std::to_string(max) + ", got '" + v + "'");
  }
  return static_cast<std::uint64_t>(n);
}

RunRequest parse_request_line(const std::string& line) {
  RunRequest req;
  std::istringstream ls(line);
  std::string tok;
  while (ls >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ConfigError("request", "token '" + tok +
                                       "' is not of the form key=value");
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "workload") {
      req.workload = val;
    } else if (key == "trace") {
      req.trace_file = val;
    } else if (key == "size-mib") {
      req.size_mib = parse_uint("request." + key, val, kMaxMib);
    } else if (key == "gpu-mib") {
      req.gpu_mib = parse_uint("request." + key, val, kMaxMib);
    } else if (key == "backend") {
      req.backend = val;
    } else if (key == "prefetch") {
      req.prefetch = val;
    } else if (key == "prefetch-policy") {
      req.prefetch_policy = val;
    } else if (key == "threshold") {
      req.threshold = static_cast<std::uint32_t>(parse_uint(
          "request." + key, val, std::numeric_limits<std::uint32_t>::max()));
    } else if (key == "policy") {
      req.policy = val;
    } else if (key == "eviction") {
      req.eviction = val;
    } else if (key == "chunking") {
      req.chunking = val;
    } else if (key == "batch-size") {
      req.batch_size = static_cast<std::uint32_t>(parse_uint(
          "request." + key, val, std::numeric_limits<std::uint32_t>::max()));
    } else if (key == "thrash") {
      req.thrash = val;
    } else if (key == "seed") {
      req.seed = parse_uint("request." + key, val);
    } else if (key == "hazard-dma") {
      req.hazard_dma = parse_rate(key, val);
    } else if (key == "hazard-fb") {
      req.hazard_fb = parse_rate(key, val);
    } else if (key == "hazard-pma") {
      req.hazard_pma = parse_rate(key, val);
    } else if (key == "hazard-ac") {
      req.hazard_ac = parse_rate(key, val);
    } else if (key == "hazard-seed") {
      req.hazard_seed = parse_uint("request." + key, val);
    } else if (key == "sabotage") {
      if (val == "none") {
        req.sabotage = WorkerSabotage::None;
      } else if (val == "crash") {
        req.sabotage = WorkerSabotage::Crash;
      } else if (val == "hang") {
        req.sabotage = WorkerSabotage::Hang;
      } else {
        throw ConfigError("request.sabotage",
                          "wants none|crash|hang, got '" + val + "'");
      }
    } else {
      throw ConfigError("request", "unknown key '" + key + "'");
    }
  }
  if (req.workload == "trace") {
    if (req.trace_file.empty()) {
      throw ConfigError("request.trace",
                        "workload=trace needs trace=<file>");
    }
  } else if (!req.trace_file.empty()) {
    throw ConfigError("request.trace",
                      "trace= is only valid with workload=trace");
  }
  if (req.workload != "trace" && req.size_mib == 0) {
    throw ConfigError("request.size-mib", "must be >= 1");
  }
  if (req.gpu_mib == 0) {
    throw ConfigError("request.gpu-mib", "must be >= 1");
  }
  return req;
}

std::vector<RunRequest> parse_queue_file(std::istream& is) {
  std::vector<RunRequest> queue;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip trailing CR and inline comments.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.find_first_not_of(' ') == std::string::npos) continue;
    try {
      queue.push_back(parse_request_line(line));
    } catch (const ConfigError& e) {
      throw ConfigError("queue line " + std::to_string(line_no), e.what());
    }
  }
  return queue;
}

void load_trace_content(RunRequest& req) {
  if (req.workload != "trace" || !req.trace_content.empty()) return;
  std::ifstream in(req.trace_file, std::ios::binary);
  if (!in) {
    throw ConfigError("request.trace",
                      "cannot open trace file '" + req.trace_file + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  req.trace_content = buf.str();
  if (req.trace_content.empty()) {
    throw ConfigError("request.trace",
                      "trace file '" + req.trace_file + "' is empty");
  }
}

std::string canonical_request(const RunRequest& req) {
  std::string trace_hash = "-";
  if (req.workload == "trace") {
    if (req.trace_content.empty()) {
      throw ConfigError("request.trace",
                        "trace content not loaded; call load_trace_content "
                        "before canonicalizing");
    }
    trace_hash = hex16(mix64(fnv1a64(req.trace_content)));
  }
  // The single-axis spellings canonicalize to the legacy pair they equal
  // (prefetch=markov is prefetch=on prefetch-policy=markov), so both share
  // one content address. Invalid pairs stay as spelled.
  std::string prefetch = req.prefetch;
  std::string predictor = req.prefetch_policy;
  if ((prefetch == "tree" || prefetch == "markov") &&
      (predictor == "tree" || predictor == prefetch)) {
    predictor = prefetch;
    prefetch = "on";
  }
  std::ostringstream os;
  os << "workload=" << req.workload << " trace-hash=" << trace_hash
     << " size-mib=" << req.size_mib << " gpu-mib=" << req.gpu_mib
     << " prefetch=" << prefetch << " threshold=" << req.threshold
     << " policy=" << req.policy << " eviction=" << req.eviction
     << " chunking=" << req.chunking << " batch-size=" << req.batch_size
     << " thrash=" << req.thrash << " seed=" << req.seed
     << " hazard-dma=" << fmt_double(req.hazard_dma)
     << " hazard-fb=" << fmt_double(req.hazard_fb)
     << " hazard-pma=" << fmt_double(req.hazard_pma)
     << " hazard-ac=" << fmt_double(req.hazard_ac)
     << " hazard-seed=" << req.hazard_seed
     << " sabotage=" << to_string(req.sabotage);
  // Spelled only when non-default: every request predating the backend knob
  // keeps the canonical line — and the content address — it was stored
  // under. New non-default keys must follow the same append-when-set rule.
  if (req.backend != "driver") os << " backend=" << req.backend;
  if (predictor != "tree") os << " prefetch-policy=" << predictor;
  return os.str();
}

std::uint64_t request_hash(const RunRequest& req) {
  return mix64(fnv1a64(canonical_request(req)));
}

std::string request_id(const RunRequest& req) {
  return hex16(request_hash(req));
}

SimConfig request_sim_config(const RunRequest& req,
                             const std::string& param_prefix) {
  SimConfig cfg;
  cfg.set_gpu_memory(req.gpu_mib << 20);
  cfg.seed = req.seed;
  cfg.enable_fault_log = false;
  cfg.driver.batch_size = req.batch_size;
  // The driver's uvm_perf_prefetch_threshold range; outside it the tree
  // would silently run as a different prefetch policy.
  if (req.threshold < 1 || req.threshold > 100) {
    throw ConfigError(param_prefix + "threshold",
                      "wants a percent in 1..100, got " +
                          std::to_string(req.threshold));
  }
  cfg.driver.prefetch_threshold = req.threshold;

  if (req.backend == "driver") {
    cfg.driver.backend = ServicingBackendKind::DriverCentric;
  } else if (req.backend == "gpu") {
    cfg.driver.backend = ServicingBackendKind::GpuDriven;
  } else {
    throw ConfigError(param_prefix + "backend",
                      "wants driver|gpu, got '" + req.backend + "'");
  }

  cfg.driver.prefetch_policy =
      parse_prefetch_policy(req.prefetch, req.prefetch_policy, param_prefix);

  if (req.policy == "block") {
    cfg.driver.replay_policy = ReplayPolicyKind::Block;
  } else if (req.policy == "batch") {
    cfg.driver.replay_policy = ReplayPolicyKind::Batch;
  } else if (req.policy == "batch_flush") {
    cfg.driver.replay_policy = ReplayPolicyKind::BatchFlush;
  } else if (req.policy == "once") {
    cfg.driver.replay_policy = ReplayPolicyKind::Once;
  } else {
    throw ConfigError(param_prefix + "policy",
                      "wants block|batch|batch_flush|once, got '" +
                          req.policy + "'");
  }

  if (req.eviction == "lru") {
    cfg.driver.eviction_policy = EvictionPolicyKind::Lru;
  } else if (req.eviction == "access_counter") {
    cfg.driver.eviction_policy = EvictionPolicyKind::AccessCounter;
    cfg.access_counters.enabled = true;
  } else if (req.eviction == "clock") {
    cfg.driver.eviction_policy = EvictionPolicyKind::Clock;
  } else if (req.eviction == "2q") {
    cfg.driver.eviction_policy = EvictionPolicyKind::TwoQ;
  } else {
    throw ConfigError(param_prefix + "eviction",
                      "wants lru|access_counter|clock|2q, got '" +
                          req.eviction + "'");
  }

  if (req.chunking == "on") {
    cfg.driver.chunking.enabled = true;
  } else if (req.chunking == "off") {
    cfg.driver.chunking.enabled = false;
  } else {
    throw ConfigError(param_prefix + "chunking",
                      "wants on|off, got '" + req.chunking + "'");
  }

  if (req.thrash != "off") {
    cfg.driver.thrashing.enabled = true;
    if (req.thrash == "detect") {
      cfg.driver.thrashing.mitigation = ThrashMitigation::None;
    } else if (req.thrash == "pin") {
      cfg.driver.thrashing.mitigation = ThrashMitigation::Pin;
    } else if (req.thrash == "throttle") {
      cfg.driver.thrashing.mitigation = ThrashMitigation::Throttle;
    } else {
      throw ConfigError(param_prefix + "thrash",
                        "wants off|detect|pin|throttle, got '" + req.thrash +
                            "'");
    }
  }

  cfg.hazards.seed = req.hazard_seed;
  cfg.hazards.dma_fail_rate = req.hazard_dma;
  cfg.hazards.fb_corrupt_rate = req.hazard_fb;
  cfg.hazards.pma_fail_rate = req.hazard_pma;
  cfg.hazards.ac_drop_rate = req.hazard_ac;
  return cfg;
}

std::unique_ptr<Workload> request_workload(const RunRequest& req) {
  if (req.workload == "trace") {
    if (req.trace_content.empty()) {
      throw ConfigError("request.trace", "trace content not loaded");
    }
    std::istringstream in(req.trace_content);
    return std::make_unique<TraceWorkload>(parse_trace(in), "trace");
  }
  try {
    return make_workload(req.workload, req.size_mib << 20);
  } catch (const std::invalid_argument& e) {
    throw ConfigError("request.workload", e.what());
  }
}

std::vector<std::string> request_cli_args(const RunRequest& req) {
  std::vector<std::string> args;
  auto add = [&args](const std::string& k, const std::string& v) {
    args.push_back(k);
    args.push_back(v);
  };
  if (req.workload == "trace") {
    add("--replay-trace", req.trace_file);
  } else {
    add("--workload", req.workload);
    add("--size-mib", std::to_string(req.size_mib));
  }
  add("--gpu-mib", std::to_string(req.gpu_mib));
  if (req.backend != "driver") add("--backend", req.backend);
  add("--prefetch", req.prefetch);
  if (req.prefetch_policy != "tree") {
    add("--prefetch-policy", req.prefetch_policy);
  }
  add("--threshold", std::to_string(req.threshold));
  add("--policy", req.policy);
  add("--eviction", req.eviction);
  add("--chunking", req.chunking);
  add("--batch-size", std::to_string(req.batch_size));
  add("--thrash", req.thrash);
  add("--seed", std::to_string(req.seed));
  if (req.hazard_dma != 0.0) add("--hazard-dma-fail-rate", fmt_double(req.hazard_dma));
  if (req.hazard_fb != 0.0) add("--hazard-fb-corrupt-rate", fmt_double(req.hazard_fb));
  if (req.hazard_pma != 0.0) add("--hazard-pma-fail-rate", fmt_double(req.hazard_pma));
  if (req.hazard_ac != 0.0) add("--hazard-ac-drop-rate", fmt_double(req.hazard_ac));
  if (req.hazard_seed != 0) add("--hazard-seed", std::to_string(req.hazard_seed));
  args.emplace_back("--csv");
  return args;
}

}  // namespace uvmsim::campaign

#include "core/experiment_config.h"

#include <algorithm>
#include <cctype>
#include <type_traits>

#include "util/parse_number.h"

namespace objrep {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string Upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

/// An unsigned integer or a finite number, by the type of `*out`.
template <typename T>
Status ParseNum(std::string_view v, int line_no, T* out) {
  if (ParseNumber<T>(v, out)) return Status::OK();
  return Status::InvalidArgument(
      "line " + std::to_string(line_no) +
      (std::is_floating_point_v<T> ? ": expected finite number"
                                   : ": expected unsigned integer"));
}

Status ParseOnOff(std::string_view v, int line_no, bool* out) {
  std::string u = Upper(v);
  if (u == "ON" || u == "TRUE" || u == "1") {
    *out = true;
    return Status::OK();
  }
  if (u == "OFF" || u == "FALSE" || u == "0") {
    *out = false;
    return Status::OK();
  }
  return Status::InvalidArgument("line " + std::to_string(line_no) +
                                 ": expected on/off");
}

}  // namespace

Status ParseStrategyName(std::string_view name, StrategyKind* out) {
  std::string u = Upper(Trim(name));
  if (u == "DFS") *out = StrategyKind::kDfs;
  else if (u == "BFS") *out = StrategyKind::kBfs;
  else if (u == "BFSNODUP") *out = StrategyKind::kBfsNoDup;
  else if (u == "DFSCACHE") *out = StrategyKind::kDfsCache;
  else if (u == "DFSCLUST") *out = StrategyKind::kDfsClust;
  else if (u == "SMART") *out = StrategyKind::kSmart;
  else if (u == "DFSCLUST+CACHE" || u == "DFSCLUSTCACHE")
    *out = StrategyKind::kDfsClustCache;
  else if (u == "BFS-JI" || u == "BFSJI" || u == "BFSJOININDEX")
    *out = StrategyKind::kBfsJoinIndex;
  else if (u == "BFS-HASH" || u == "BFSHASH")
    *out = StrategyKind::kBfsHash;
  else if (u == "ADAPTIVE")
    *out = StrategyKind::kAdaptive;
  else
    return Status::InvalidArgument("unknown strategy: " + std::string(name));
  return Status::OK();
}

Status ParseExperimentConfig(std::string_view text, ExperimentConfig* out) {
  *out = ExperimentConfig{};
  int line_no = 0;
  size_t pos = 0;
  bool have_strategies = false;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos
                                          : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;

    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected key = value");
    }
    std::string key = Upper(Trim(line.substr(0, eq)));
    std::string_view value = Trim(line.substr(eq + 1));
    if (value.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": empty value");
    }

    if (key == "PARENTS") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.num_parents));
    } else if (key == "SIZE_UNIT") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.size_unit));
    } else if (key == "USE_FACTOR") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.use_factor));
    } else if (key == "OVERLAP_FACTOR") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.overlap_factor));
    } else if (key == "CHILD_RELS") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.num_child_rels));
    } else if (key == "BUFFER_PAGES") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.buffer_pages));
    } else if (key == "CACHE") {
      OBJREP_RETURN_NOT_OK(ParseOnOff(value, line_no, &out->db.build_cache));
    } else if (key == "SIZE_CACHE") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.size_cache));
    } else if (key == "CLUSTER") {
      OBJREP_RETURN_NOT_OK(
          ParseOnOff(value, line_no, &out->db.build_cluster));
    } else if (key == "SEED") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.seed));
      out->workload.seed = out->db.seed + 1;
    } else if (key == "QUERIES") {
      OBJREP_RETURN_NOT_OK(
          ParseNum(value, line_no, &out->workload.num_queries));
    } else if (key == "NUM_TOP") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->workload.num_top));
    } else if (key == "PR_UPDATE") {
      OBJREP_RETURN_NOT_OK(
          ParseNum(value, line_no, &out->workload.pr_update));
    } else if (key == "UPDATE_BATCH") {
      OBJREP_RETURN_NOT_OK(
          ParseNum(value, line_no, &out->workload.update_batch));
    } else if (key == "HOT_ACCESS_PROB") {
      OBJREP_RETURN_NOT_OK(
          ParseNum(value, line_no, &out->workload.hot_access_prob));
    } else if (key == "HOT_REGION_FRACTION") {
      OBJREP_RETURN_NOT_OK(
          ParseNum(value, line_no, &out->workload.hot_region_fraction));
    } else if (key == "SMART_THRESHOLD") {
      OBJREP_RETURN_NOT_OK(
          ParseNum(value, line_no, &out->options.smart_threshold));
    } else if (key == "CALIBRATION_WINDOW") {
      OBJREP_RETURN_NOT_OK(
          ParseNum(value, line_no, &out->options.calibration_window));
    } else if (key == "PREFETCH") {
      OBJREP_RETURN_NOT_OK(ParseOnOff(value, line_no, &out->db.prefetch));
    } else if (key == "RECLAIM_TEMPS") {
      OBJREP_RETURN_NOT_OK(
          ParseOnOff(value, line_no, &out->db.reclaim_temp_pages));
    } else if (key == "IO_LATENCY_US") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.io_latency_us));
    } else if (key == "IO_TRANSFER_US") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->db.io_transfer_us));
    } else if (key == "NET_PORT") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->net_port));
      if (out->net_port > 65535) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": net_port exceeds 65535");
      }
    } else if (key == "NET_WORKERS") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->net_workers));
      if (out->net_workers == 0) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": net_workers must be positive");
      }
    } else if (key == "NET_MAX_INFLIGHT") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->net_max_inflight));
      if (out->net_max_inflight == 0) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": net_max_inflight must be positive");
      }
    } else if (key == "SHARDS") {
      OBJREP_RETURN_NOT_OK(ParseNum(value, line_no, &out->shards));
      if (out->shards == 0) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": shards must be positive");
      }
    } else if (key == "WAL") {
      OBJREP_RETURN_NOT_OK(ParseOnOff(value, line_no, &out->db.enable_wal));
    } else if (key == "MVCC") {
      OBJREP_RETURN_NOT_OK(ParseOnOff(value, line_no, &out->db.enable_mvcc));
    } else if (key == "STRATEGIES") {
      out->strategies.clear();
      std::string_view rest = value;
      while (!rest.empty()) {
        size_t comma = rest.find(',');
        std::string_view item = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view()
                                               : rest.substr(comma + 1);
        StrategyKind kind;
        Status s = ParseStrategyName(item, &kind);
        if (!s.ok()) {
          return Status::InvalidArgument("line " + std::to_string(line_no) +
                                         ": " + s.message());
        }
        out->strategies.push_back(kind);
      }
      have_strategies = true;
    } else {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": unknown key '" + key + "'");
    }
  }
  if (!have_strategies || out->strategies.empty()) {
    return Status::InvalidArgument("config names no strategies");
  }
  out->db = WithStructuresFor(out->db, out->strategies);
  return out->db.Validate();
}

}  // namespace objrep

#include "server/protocol.h"

#include <cmath>

#include "json/json_text.h"
#include "util/str_conv.h"

namespace nodb {

namespace {

/// Case-insensitive match against an ASCII keyword.
bool VerbIs(std::string_view line, std::string_view verb) {
  if (line.size() != verb.size()) return false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c != verb[i]) return false;
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

Result<Request> KindForOp(std::string_view op) {
  Request req;
  if (VerbIs(op, "STATS")) {
    req.kind = Request::Kind::kStats;
  } else if (VerbIs(op, "CANCEL")) {
    req.kind = Request::Kind::kCancel;
  } else if (VerbIs(op, "PING")) {
    req.kind = Request::Kind::kPing;
  } else if (VerbIs(op, "QUIT")) {
    req.kind = Request::Kind::kQuit;
  } else {
    return Status::InvalidArgument("unknown op '" + std::string(op) + "'");
  }
  return req;
}

void AppendValueJson(std::string* out, const Value& v) {
  if (v.is_null()) {
    out->append("null");
    return;
  }
  switch (v.type()) {
    case TypeId::kString:
      AppendJsonQuoted(out, v.str());
      break;
    case TypeId::kDate:
      AppendJsonQuoted(out, v.ToString());
      break;
    case TypeId::kDouble:
      // JSON has no NaN/Infinity literals; non-finite degrades to null
      // (same policy as the JSONL writer).
      if (!std::isfinite(v.f64())) {
        out->append("null");
      } else {
        out->append(v.ToString());
      }
      break;
    default:  // int64 / bool are JSON literals already
      out->append(v.ToString());
  }
}

}  // namespace

Result<Request> ParseRequest(std::string_view line) {
  std::string_view s = Trim(line);
  if (s.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  if (s.front() != '{') {
    // Bare-verb form.
    return KindForOp(s);
  }

  Request req;
  bool has_q = false, has_op = false;
  std::string op;
  size_t i = SkipJsonWs(s, 1);
  ScalarJsonSkipper skip;
  std::string scratch;
  if (i < s.size() && s[i] == '}') return Status::InvalidArgument(
      "request object is empty");
  while (i < s.size() && s[i] != '}') {
    if (s[i] != '"') {
      return Status::InvalidArgument("malformed request: expected a key");
    }
    std::string_view key;
    size_t key_end = 0;
    if (!ReadJsonKey(s, i, skip, &key, &scratch, &key_end)) {
      return Status::InvalidArgument("malformed request key");
    }
    i = SkipJsonWs(s, key_end);
    if (i >= s.size() || s[i] != ':') {
      return Status::InvalidArgument("malformed request: expected ':'");
    }
    i = SkipJsonWs(s, i + 1);
    size_t val_end = skip.SkipValue(s, i);
    if (val_end > s.size() || val_end <= i) {
      return Status::InvalidArgument("malformed request value");
    }
    std::string_view raw = s.substr(i, val_end - i);
    if (key == "q" || key == "id" || key == "op") {
      if (raw.empty() || raw.front() != '"') {
        return Status::InvalidArgument("'" + std::string(key) +
                                       "' must be a JSON string");
      }
      std::string decoded;
      if (!UnescapeJsonString(raw, &decoded)) {
        return Status::InvalidArgument("malformed string for '" +
                                       std::string(key) + "'");
      }
      if (key == "q") {
        req.sql = std::move(decoded);
        has_q = true;
      } else if (key == "id") {
        req.id = std::move(decoded);
      } else {
        op = std::move(decoded);
        has_op = true;
      }
    } else if (key == "deadline_ms") {
      Result<int64_t> ms = ParseInt64(raw);
      if (!ms.ok() || *ms < 0) {
        return Status::InvalidArgument(
            "'deadline_ms' must be a non-negative integer");
      }
      req.deadline_ms = *ms;
    }
    // Unknown keys are ignored (forward compatibility).
    i = SkipJsonWs(s, val_end);
    if (i < s.size() && s[i] == ',') i = SkipJsonWs(s, i + 1);
  }
  if (i >= s.size()) {
    return Status::InvalidArgument("unterminated request object");
  }
  if (has_op) {
    NODB_ASSIGN_OR_RETURN(Request verb, KindForOp(op));
    verb.id = std::move(req.id);
    verb.deadline_ms = req.deadline_ms;
    return verb;
  }
  if (!has_q) {
    return Status::InvalidArgument("request needs \"q\" or \"op\"");
  }
  req.kind = Request::Kind::kQuery;
  return req;
}

std::string SchemaLine(const Schema& schema) {
  std::string out = "{\"schema\":[";
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out.push_back(',');
    out.append("{\"name\":");
    AppendJsonQuoted(&out, schema.column(c).name);
    out.append(",\"type\":");
    AppendJsonQuoted(&out, TypeIdToString(schema.column(c).type));
    out.push_back('}');
  }
  out.append("]}\n");
  return out;
}

void AppendBatchLine(std::string* out, const RowBatch& batch, size_t n) {
  out->append("{\"rows\":[");
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out->push_back(',');
    out->push_back('[');
    const Row& row = batch[i];
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out->push_back(',');
      AppendValueJson(out, row[c]);
    }
    out->push_back(']');
  }
  out->append("]}\n");
}

std::string OkLine(uint64_t rows, bool cold, double seconds,
                   std::string_view id) {
  std::string out = "{\"status\":\"ok\",\"rows\":";
  out += std::to_string(rows);
  out += ",\"cold\":";
  out += cold ? "true" : "false";
  out += ",\"seconds\":";
  AppendDouble(&out, seconds);
  if (!id.empty()) {
    out += ",\"id\":";
    AppendJsonQuoted(&out, id);
  }
  out += "}\n";
  return out;
}

std::string ErrorLine(const Status& status, std::string_view id) {
  std::string out = "{\"status\":\"error\",\"code\":";
  AppendJsonQuoted(&out, StatusCodeToString(status.code()));
  out += ",\"message\":";
  AppendJsonQuoted(&out, status.message());
  if (!id.empty()) {
    out += ",\"id\":";
    AppendJsonQuoted(&out, id);
  }
  out += "}\n";
  return out;
}

std::string StatsLine(const ServerStats& s, const SessionStatsView& sess) {
  std::string out = "{\"stats\":{";
  auto field = [&out](const char* name, uint64_t v, bool first = false) {
    if (!first) out.push_back(',');
    out.push_back('"');
    out.append(name);
    out.append("\":");
    out.append(std::to_string(v));
  };
  field("sessions_opened", s.sessions_opened, /*first=*/true);
  field("sessions_closed", s.sessions_closed);
  field("sessions_active", static_cast<uint64_t>(
                               s.sessions_active < 0 ? 0 : s.sessions_active));
  field("queries_started", s.queries_started);
  field("queries_finished", s.queries_finished);
  field("queries_failed", s.queries_failed);
  field("queries_cancelled", s.queries_cancelled);
  field("queries_deadline", s.queries_deadline);
  field("queries_rejected", s.queries_rejected);
  field("rows_streamed", s.rows_streamed);
  field("bytes_streamed", s.bytes_streamed);
  field("cold_admitted", s.cold_admitted);
  field("warm_admitted", s.warm_admitted);
  field("cold_active", static_cast<uint64_t>(s.cold_active));
  field("warm_active", static_cast<uint64_t>(s.warm_active));
  field("cold_queued", static_cast<uint64_t>(s.cold_queued));
  field("warm_queued", static_cast<uint64_t>(s.warm_queued));
  field("latency_samples", s.latency_samples);
  out += ",\"p50_ms\":";
  AppendDouble(&out, s.p50_ms);
  out += ",\"p99_ms\":";
  AppendDouble(&out, s.p99_ms);
  field("snapshot_loads", s.snapshot.loads);
  field("snapshot_load_misses", s.snapshot.load_misses);
  field("snapshot_load_stale", s.snapshot.load_stale);
  field("snapshot_load_corrupt", s.snapshot.load_corrupt);
  field("snapshot_saves", s.snapshot.saves);
  field("snapshot_save_failures", s.snapshot.save_failures);
  field("snapshot_bytes_loaded", s.snapshot.bytes_loaded);
  field("snapshot_bytes_saved", s.snapshot.bytes_saved);
  out += ",\"tables\":[";
  for (size_t i = 0; i < s.tables.size(); ++i) {
    const TableInfo& t = s.tables[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    AppendJsonQuoted(&out, t.name);
    out += ",\"snapshot_state\":";
    AppendJsonQuoted(&out, SnapshotStateName(t.snapshot_state));
    out += ",\"snapshot_bytes\":" + std::to_string(t.snapshot_bytes);
    out += ",\"bytes_read\":" + std::to_string(t.bytes_read);
    out += ",\"compressed\":";
    out += t.compressed ? "true" : "false";
    out += ",\"gz_checkpoints\":" + std::to_string(t.gz_checkpoints);
    out += ",\"gz_bytes_inflated\":" + std::to_string(t.gz_bytes_inflated);
    out += ",\"rows\":";
    AppendDouble(&out, t.row_count);
    out += ",\"promoted_columns\":[";
    for (size_t c = 0; c < t.promoted_columns.size(); ++c) {
      if (c > 0) out.push_back(',');
      out += std::to_string(t.promoted_columns[c]);
    }
    out += "]";
    out += ",\"promoted_bytes\":" + std::to_string(t.promoted_bytes);
    out += ",\"promotions\":" + std::to_string(t.promotions);
    out += ",\"demotions\":" + std::to_string(t.demotions);
    out += "}";
  }
  out += "]";
  out += ",\"session\":{";
  out += "\"id\":" + std::to_string(sess.session_id);
  out += ",\"queries\":" + std::to_string(sess.queries);
  out += ",\"rows_streamed\":" + std::to_string(sess.rows_streamed);
  out += ",\"bytes_streamed\":" + std::to_string(sess.bytes_streamed);
  out += "}}}\n";
  return out;
}

std::string PongLine() { return "{\"pong\":true}\n"; }

}  // namespace nodb

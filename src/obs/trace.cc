#include "obs/trace.hh"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util/file_io.hh"
#include "util/json.hh"
#include "util/require.hh"

namespace puffer::obs {

namespace {

/// Microsecond timestamps with fixed millinanosecond precision: stable
/// bytes for equal inputs, and ample resolution for both planes.
void append_time_us(std::string& out, const double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", std::isfinite(value) ? value : 0.0);
  out += buf;
}

void append_value(std::string& out, const double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

}  // namespace

TraceArgs& TraceArgs::add(const std::string_view key, const int64_t value) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += '"';
  append_json_escaped(body_, key);
  body_ += "\":" + std::to_string(value);
  return *this;
}

TraceArgs& TraceArgs::add(const std::string_view key, const double value) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += '"';
  append_json_escaped(body_, key);
  body_ += "\":";
  append_value(body_, value);
  return *this;
}

TraceArgs& TraceArgs::add(const std::string_view key,
                          const std::string_view value) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += '"';
  append_json_escaped(body_, key);
  body_ += "\":\"";
  append_json_escaped(body_, value);
  body_ += '"';
  return *this;
}

void TraceWriter::push_event(const int pid, const int tid, const char phase,
                             const std::string_view name, const double* ts_us,
                             const double* dur_us,
                             const std::string_view args_json) {
  std::string event = "{\"name\":\"";
  append_json_escaped(event, name);
  event += "\",\"ph\":\"";
  event += phase;
  event += "\",\"pid\":" + std::to_string(pid);
  event += ",\"tid\":" + std::to_string(tid);
  if (ts_us != nullptr) {
    event += ",\"ts\":";
    append_time_us(event, *ts_us);
  }
  if (dur_us != nullptr) {
    event += ",\"dur\":";
    append_time_us(event, *dur_us);
  }
  if (!args_json.empty()) {
    event += ",\"args\":";
    event += args_json;
  }
  event += '}';
  events_.push_back(std::move(event));
}

void TraceWriter::process_name(const int pid, const std::string_view name) {
  push_event(pid, 0, 'M', "process_name", nullptr, nullptr,
             TraceArgs{}.add("name", name).str());
}

void TraceWriter::thread_name(const int pid, const int tid,
                              const std::string_view name) {
  std::string event = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
                      std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                      ",\"args\":" + TraceArgs{}.add("name", name).str() + "}";
  events_.push_back(std::move(event));
}

void TraceWriter::complete(const int pid, const int tid,
                           const std::string_view name, const double ts_us,
                           const double dur_us,
                           const std::string_view args_json) {
  push_event(pid, tid, 'X', name, &ts_us, &dur_us, args_json);
}

void TraceWriter::instant(const int pid, const int tid,
                          const std::string_view name, const double ts_us,
                          const std::string_view args_json) {
  push_event(pid, tid, 'i', name, &ts_us, nullptr, args_json);
}

void TraceWriter::counter(const int pid, const std::string_view name,
                          const double ts_us, const double value) {
  std::string args = "{\"";
  append_json_escaped(args, name);
  args += "\":";
  append_value(args, value);
  args += '}';
  push_event(pid, 0, 'C', name, &ts_us, nullptr, args);
}

void TraceWriter::append_from(TraceWriter& other) {
  events_.reserve(events_.size() + other.events_.size());
  for (std::string& event : other.events_) {
    events_.push_back(std::move(event));
  }
  other.events_.clear();
}

std::string TraceWriter::str() const {
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); i++) {
    if (i > 0) {
      out += ',';
    }
    out += '\n';
    out += events_[i];
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceWriter::write_file(const std::string& path) const {
  try {
    puffer::write_file(path, [this](std::ostream& out) { out << str(); });
    return true;
  } catch (const RequirementError&) {
    return false;
  }
}

}  // namespace puffer::obs

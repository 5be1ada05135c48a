#include "net/trace_file.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "util/file_io.hh"
#include "util/require.hh"

namespace puffer::net {

TraceFile::TraceFile(std::vector<uint64_t> delivery_times_ms)
    : delivery_times_ms_(std::move(delivery_times_ms)) {
  require(!delivery_times_ms_.empty(),
          "TraceFile: need at least one delivery opportunity");
  require(std::is_sorted(delivery_times_ms_.begin(), delivery_times_ms_.end()),
          "TraceFile: timestamps must be non-decreasing");
  require(delivery_times_ms_.back() <= kMaxTimestampMs,
          "TraceFile: timestamps must not exceed one day");
}

TraceFile TraceFile::parse(std::istream& in) {
  std::vector<uint64_t> times;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    line_number++;
    // Tolerate trailing carriage returns and blank lines (mahimahi's own
    // parser skips neither, but traces in the wild carry both).
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    // Digits only: stoull would silently skip leading whitespace and wrap
    // negative values, so validate the whole line first.
    uint64_t value = 0;
    bool numeric = line.find_first_not_of("0123456789") == std::string::npos;
    if (numeric) {
      try {
        value = std::stoull(line);
      } catch (const std::exception&) {
        numeric = false;  // out of uint64 range
      }
    }
    // The whole-line digit check rejects NaN/inf spellings, negative and
    // fractional timestamps, and scientific notation alike — name the
    // offending line and its content so a bad trace is diagnosable.
    require(numeric,
            "TraceFile: line " + std::to_string(line_number) +
                " is not a non-negative integer millisecond timestamp: '" +
                line + "'");
    if (value > kMaxTimestampMs) {
      throw RequirementError("TraceFile: line " + std::to_string(line_number) +
                             " is past one day (" +
                             std::to_string(kMaxTimestampMs) +
                             " ms): " + std::to_string(value) + " ms");
    }
    if (!times.empty() && value < times.back()) {
      throw RequirementError(
          "TraceFile: line " + std::to_string(line_number) +
          " goes back in time: " + std::to_string(value) + " ms after " +
          std::to_string(times.back()) + " ms");
    }
    times.push_back(value);
  }
  require(!times.empty(),
          "TraceFile: no delivery timestamps found (empty trace)");
  return TraceFile{std::move(times)};
}

TraceFile TraceFile::load(const std::string& path) {
  std::ifstream in{path};
  require(in.is_open(), "TraceFile::load: cannot open " + path);
  try {
    return parse(in);
  } catch (const RequirementError& error) {
    // Re-raise with the file named: "line 7 goes back in time" is useless
    // without knowing which of a directory of traces it came from.
    throw RequirementError("TraceFile::load: " + path + ": " + error.what());
  }
}

void TraceFile::write(std::ostream& out) const {
  for (const uint64_t t : delivery_times_ms_) {
    out << t << '\n';
  }
}

void TraceFile::save(const std::string& path) const {
  write_file(path, [this](std::ostream& out) { write(out); });
}

TraceFile TraceFile::from_trace(const ThroughputTrace& trace) {
  std::vector<uint64_t> times;
  const double dt = trace.segment_duration();
  double cumulative_bytes = 0.0;
  double next_packet = kPacketBytes;
  for (size_t i = 0; i < trace.num_segments(); i++) {
    const double rate = trace.rates()[i];
    const double start_s = static_cast<double>(i) * dt;
    const double end_bytes = cumulative_bytes + rate * dt;
    while (next_packet <= end_bytes) {
      // Exact crossing time within this constant-rate segment.
      const double t = start_s + (next_packet - cumulative_bytes) / rate;
      times.push_back(static_cast<uint64_t>(std::floor(t * 1000.0)));
      next_packet += kPacketBytes;
    }
    cumulative_bytes = end_bytes;
  }
  require(!times.empty(),
          "TraceFile::from_trace: trace too slow/short to deliver one packet");
  return TraceFile{std::move(times)};
}

ThroughputTrace TraceFile::to_trace(const double bin_duration_s) const {
  require(bin_duration_s > 0.0, "TraceFile::to_trace: bin duration > 0");
  const double bin_ms = bin_duration_s * 1000.0;
  // A timestamp marks the instant a packet's bytes complete, so a packet on
  // a bin boundary belongs to the bin it accumulated in: bin = ceil(t)-1.
  const auto bin_of = [bin_ms](const uint64_t t) {
    if (t == 0) {
      return size_t{0};
    }
    return static_cast<size_t>(std::ceil(static_cast<double>(t) / bin_ms)) - 1;
  };
  const size_t num_bins = bin_of(delivery_times_ms_.back()) + 1;
  std::vector<double> rates(num_bins, 0.0);
  for (const uint64_t t : delivery_times_ms_) {
    rates[bin_of(t)] += kPacketBytes / bin_duration_s;
  }
  return ThroughputTrace{std::move(rates), bin_duration_s};
}

double TraceFile::duration_s() const {
  return static_cast<double>(delivery_times_ms_.back()) / 1000.0;
}

double TraceFile::mean_rate_bps() const {
  const double duration = std::max(duration_s(), 1e-3);
  return static_cast<double>(num_packets()) * kPacketBytes / duration;
}

}  // namespace puffer::net

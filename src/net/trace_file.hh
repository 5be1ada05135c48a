#ifndef PUFFER_NET_TRACE_FILE_HH
#define PUFFER_NET_TRACE_FILE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/trace.hh"

namespace puffer::net {

/// A Mahimahi-style packet-delivery trace: one integer millisecond timestamp
/// per line, each marking an opportunity to deliver one MTU-sized packet
/// (mahimahi's mm-link format, used by the FCC/Verizon traces the Pensieve
/// and Puffer emulation experiments replay). Timestamps are non-decreasing;
/// repeated timestamps mean several packets delivered in the same
/// millisecond.
class TraceFile {
 public:
  /// Bytes per delivery opportunity (one MTU-sized packet, as in mahimahi).
  static constexpr double kPacketBytes = 1500.0;
  /// Latest accepted timestamp: one day. Sessions are capped at 18 h and
  /// replay loops the trace, so a longer trace is never needed — and
  /// to_trace() allocates bins up to the last timestamp, so an unbounded
  /// timestamp in a tiny file would ask for gigabytes.
  static constexpr uint64_t kMaxTimestampMs = 24ULL * 3600 * 1000;

  /// No default constructor: every TraceFile holds >= 1 delivery
  /// opportunity (duration_s()/to_trace() rely on it).
  explicit TraceFile(std::vector<uint64_t> delivery_times_ms);

  /// Parse the text format. Throws RequirementError on empty input, garbage
  /// lines, decreasing timestamps, or a timestamp past kMaxTimestampMs.
  static TraceFile parse(std::istream& in);
  static TraceFile load(const std::string& path);

  /// Write the text format (bit-exact round trip through parse/load).
  void write(std::ostream& out) const;
  void save(const std::string& path) const;

  /// Quantize a capacity trace into delivery opportunities: the k-th packet
  /// is stamped at the time the trace's cumulative byte count crosses
  /// k * kPacketBytes.
  static TraceFile from_trace(const ThroughputTrace& trace);

  /// Bin the delivery opportunities into a piecewise-constant capacity
  /// trace with `bin_duration_s`-long segments covering [0, duration()].
  [[nodiscard]] ThroughputTrace to_trace(double bin_duration_s = 1.0) const;

  [[nodiscard]] const std::vector<uint64_t>& delivery_times_ms() const {
    return delivery_times_ms_;
  }
  [[nodiscard]] size_t num_packets() const { return delivery_times_ms_.size(); }
  /// Trace length: the last delivery timestamp, in seconds.
  [[nodiscard]] double duration_s() const;
  /// Average delivery rate over [0, duration()], bytes per second.
  [[nodiscard]] double mean_rate_bps() const;

  friend bool operator==(const TraceFile&, const TraceFile&) = default;

 private:
  std::vector<uint64_t> delivery_times_ms_;
};

}  // namespace puffer::net

#endif  // PUFFER_NET_TRACE_FILE_HH

#ifndef PUFFER_UTIL_BINARY_IO_HH
#define PUFFER_UTIL_BINARY_IO_HH

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "util/require.hh"

namespace puffer {

/// Little-endian fixed-width primitives shared by every binary format in the
/// repo (nn model files, insitu datasets, trial caches, campaign
/// checkpoints). Readers raise RequirementError on truncation, tagged with
/// the caller's context so the failing format is identifiable; opening,
/// flushing and the nullopt-on-damage contract live in util/file_io.hh.

inline void write_u64(std::ostream& out, const uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline uint64_t read_u64(std::istream& in, const std::string_view context) {
  uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  require(bool(in), std::string{context} + ": truncated stream");
  return value;
}

inline void write_f64(std::ostream& out, const double value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline double read_f64(std::istream& in, const std::string_view context) {
  double value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  require(bool(in), std::string{context} + ": truncated stream");
  return value;
}

/// Elements to reserve for a count read from a file: capped, so a corrupt
/// count fails at EOF instead of reserving gigabytes first.
inline size_t capped_reservation(const uint64_t count) {
  return static_cast<size_t>(std::min<uint64_t>(count, uint64_t{1} << 16));
}

/// Length-prefixed string. `max_size` bounds what the reader will accept —
/// pick the writer-side invariant of the format so a corrupt length fails
/// instead of allocating.
inline void write_string(std::ostream& out, const std::string& text) {
  write_u64(out, text.size());
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

inline std::string read_string(std::istream& in,
                               const std::string_view context,
                               const size_t max_size) {
  const uint64_t size = read_u64(in, context);
  require(size <= max_size,
          std::string{context} + ": implausible string length");
  std::string text(size, '\0');
  in.read(text.data(), static_cast<std::streamsize>(size));
  require(bool(in), std::string{context} + ": truncated stream");
  return text;
}

}  // namespace puffer

#endif  // PUFFER_UTIL_BINARY_IO_HH

#ifndef PUFFER_UTIL_FILE_IO_HH
#define PUFFER_UTIL_FILE_IO_HH

#include <fstream>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "util/require.hh"

namespace puffer {

/// The file layer every cache, checkpoint and export goes through.
///
/// write_file(path, write) opens `path` truncating, runs `write(out)`, then
/// closes (flushing), and throws RequirementError naming the path if any
/// step fails: a full disk is an error, never a silent short file.
///
/// The cache-miss contract: a format's reader throws on input it cannot
/// parse (RequirementError; or bad_alloc/length_error from a corrupt count
/// that passed its plausibility bound), and try_read maps all three to
/// nullopt. try_read_file adds "the file does not open" to the misses.
/// The campaign checkpoint's restore alone treats damage as an error: its
/// state cannot be regenerated cheaply.

template <typename Write>
void write_file(const std::string& path, Write&& write) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  require(out.is_open(), "cannot open " + path + " for writing");
  write(static_cast<std::ostream&>(out));
  out.close();  // flushes; a failed flush or close sets failbit
  require(!out.fail(), "write failed for " + path);
}

template <typename Read>
auto try_read(std::istream& in, Read&& read)
    -> std::optional<std::remove_cvref_t<decltype(read(in))>> {
  try {
    return read(in);
  } catch (const RequirementError&) {
    return std::nullopt;
  } catch (const std::bad_alloc&) {
    return std::nullopt;
  } catch (const std::length_error&) {
    return std::nullopt;
  }
}

template <typename Read>
auto try_read_file(const std::string& path, Read&& read)
    -> decltype(try_read(std::declval<std::istream&>(), read)) {
  std::ifstream in{path, std::ios::binary};
  if (!in.is_open()) {
    return std::nullopt;
  }
  return try_read(in, read);
}

}  // namespace puffer

#endif  // PUFFER_UTIL_FILE_IO_HH

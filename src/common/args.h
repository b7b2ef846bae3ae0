#ifndef TASKBENCH_COMMON_ARGS_H_
#define TASKBENCH_COMMON_ARGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace taskbench {

/// Minimal command-line parser for the tools: positional arguments
/// plus `--key=value` / `--flag` options. No external dependencies.
///
/// Every accessor (Has and the Get* family) records the key as read,
/// so after a command has consulted all the options it understands,
/// CheckAllRead() refuses the ones it would otherwise silently ignore.
class Args {
 public:
  /// Parses argv[1..). `--key=value` and `--key value` both work;
  /// a bare `--key` is a boolean flag with value "true".
  static Args Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  /// The option's value, or `fallback` when absent.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;

  /// Integer option; fails on non-numeric values.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;

  /// Double option; fails on non-numeric values.
  Result<double> GetDouble(const std::string& key, double fallback) const;

  /// File-path option: absent -> "". A bare `--key` (or `--key=`)
  /// fails naming the flag rather than yielding a file named "true".
  Result<std::string> GetPath(const std::string& key) const;

  /// Boolean flag: absent -> fallback; "", "true", "1" -> true;
  /// "false", "0" -> false; anything else fails.
  Result<bool> GetBool(const std::string& key, bool fallback) const;

  /// Keys that were provided but never read, in sorted order.
  std::vector<std::string> UnreadKeys() const;

  /// InvalidArgument naming every unread key, or OK when all were read.
  Status CheckAllRead() const;

 private:
  /// The value of `key` (recording it as read), or nullptr if absent.
  const std::string* Find(const std::string& key) const;

  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
  std::set<std::string> bare_;  ///< keys given as a bare `--key`
  mutable std::set<std::string> read_;
};

}  // namespace taskbench

#endif  // TASKBENCH_COMMON_ARGS_H_

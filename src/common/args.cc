#include "common/args.h"

#include <cstdlib>

#include "common/strings.h"

namespace taskbench {

Args Args::Parse(int argc, const char* const* argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const size_t eq = body.find('=');
    // A repeated key keeps its last value, bare or not.
    args.bare_.erase(body.substr(0, eq));
    if (eq != std::string::npos) {
      args.options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options_[body] = argv[++i];
    } else {
      args.options_[body] = "true";
      args.bare_.insert(body);
    }
  }
  return args;
}

const std::string* Args::Find(const std::string& key) const {
  read_.insert(key);
  const auto it = options_.find(key);
  return it == options_.end() ? nullptr : &it->second;
}

std::string Args::GetString(const std::string& key,
                            const std::string& fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : *value;
}

Result<std::string> Args::GetPath(const std::string& key) const {
  const std::string* value = Find(key);
  if (value == nullptr) return std::string();
  if (bare_.count(key) != 0 || value->empty()) {
    return Status::InvalidArgument(
        StrFormat("--%s needs a file path (--%s=PATH)", key.c_str(),
                  key.c_str()));
  }
  return *value;
}

Result<int64_t> Args::GetInt(const std::string& key, int64_t fallback) const {
  const std::string* text = Find(key);
  if (text == nullptr) return fallback;
  auto value = ParseInt64(*text);
  if (!value.ok()) {
    return value.status().WithContext(StrFormat("--%s", key.c_str()));
  }
  return *value;
}

Result<double> Args::GetDouble(const std::string& key, double fallback) const {
  const std::string* text = Find(key);
  if (text == nullptr) return fallback;
  auto value = ParseDouble(*text);
  if (!value.ok()) {
    return value.status().WithContext(StrFormat("--%s", key.c_str()));
  }
  return *value;
}

Result<bool> Args::GetBool(const std::string& key, bool fallback) const {
  const std::string* text = Find(key);
  if (text == nullptr) return fallback;
  const std::string& v = *text;
  if (v.empty() || v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  return Status::InvalidArgument(StrFormat(
      "--%s expects true/false, got '%s'", key.c_str(), v.c_str()));
}

std::vector<std::string> Args::UnreadKeys() const {
  std::vector<std::string> unread;
  for (const auto& [key, _] : options_) {
    if (read_.count(key) == 0) unread.push_back(key);
  }
  return unread;
}

Status Args::CheckAllRead() const {
  const std::vector<std::string> unread = UnreadKeys();
  if (unread.empty()) return Status::OK();
  std::string names;
  for (const std::string& key : unread) {
    names += (names.empty() ? "--" : ", --") + key;
  }
  return Status::InvalidArgument(StrFormat(
      "option%s not used by this command: %s",
      unread.size() == 1 ? "" : "s", names.c_str()));
}

}  // namespace taskbench

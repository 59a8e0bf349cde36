#include "dctcpp/util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "dctcpp/util/assert.h"

namespace dctcpp {

void Flags::DefineInt(const std::string& name, std::int64_t def,
                      const std::string& help) {
  Entry e;
  e.type = Type::kInt;
  e.help = help;
  e.i = def;
  entries_[name] = std::move(e);
}

void Flags::DefineDouble(const std::string& name, double def,
                         const std::string& help) {
  Entry e;
  e.type = Type::kDouble;
  e.help = help;
  e.d = def;
  entries_[name] = std::move(e);
}

void Flags::DefineBool(const std::string& name, bool def,
                       const std::string& help) {
  Entry e;
  e.type = Type::kBool;
  e.help = help;
  e.b = def;
  entries_[name] = std::move(e);
}

void Flags::DefineString(const std::string& name, const std::string& def,
                         const std::string& help) {
  Entry e;
  e.type = Type::kString;
  e.help = help;
  e.s = def;
  entries_[name] = std::move(e);
}

bool Flags::SetFromString(Entry& e, const std::string& value) {
  char* end = nullptr;
  // strtoll/strtod clamp an out-of-range value (to LLONG_MAX, HUGE_VAL,
  // 0 ...) and say so only through errno, so it is cleared first.
  errno = 0;
  switch (e.type) {
    case Type::kInt:
      e.i = std::strtoll(value.c_str(), &end, 10);
      return end && *end == '\0' && !value.empty() && errno != ERANGE;
    case Type::kDouble:
      e.d = std::strtod(value.c_str(), &end);
      return end && *end == '\0' && !value.empty() && errno != ERANGE;
    case Type::kBool:
      if (value == "true" || value == "1") {
        e.b = true;
        return true;
      }
      if (value == "false" || value == "0") {
        e.b = false;
        return true;
      }
      return false;
    case Type::kString:
      e.s = value;
      return true;
  }
  return false;
}

bool Flags::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n",
                   arg.c_str());
      PrintUsage(argv[0]);
      failed_ = true;
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      PrintUsage(argv[0]);
      failed_ = true;
      return false;
    }
    Entry& e = it->second;
    if (!have_value) {
      if (e.type == Type::kBool) {
        e.b = true;  // bare --flag means true
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s needs a value\n", name.c_str());
        failed_ = true;
        return false;
      }
      value = argv[++i];
    }
    if (!SetFromString(e, value)) {
      std::fprintf(stderr, "bad value for --%s: '%s'\n", name.c_str(),
                   value.c_str());
      failed_ = true;
      return false;
    }
  }
  return true;
}

std::int64_t Flags::GetInt(const std::string& name) const {
  auto it = entries_.find(name);
  DCTCPP_ASSERT(it != entries_.end() && it->second.type == Type::kInt);
  return it->second.i;
}

double Flags::GetDouble(const std::string& name) const {
  auto it = entries_.find(name);
  DCTCPP_ASSERT(it != entries_.end() && it->second.type == Type::kDouble);
  return it->second.d;
}

bool Flags::GetBool(const std::string& name) const {
  auto it = entries_.find(name);
  DCTCPP_ASSERT(it != entries_.end() && it->second.type == Type::kBool);
  return it->second.b;
}

const std::string& Flags::GetString(const std::string& name) const {
  auto it = entries_.find(name);
  DCTCPP_ASSERT(it != entries_.end() && it->second.type == Type::kString);
  return it->second.s;
}

void Flags::PrintUsage(const char* prog) const {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", prog);
  for (const auto& [name, e] : entries_) {
    const char* type = "";
    char defbuf[64] = "";
    switch (e.type) {
      case Type::kInt:
        type = "int";
        std::snprintf(defbuf, sizeof defbuf, "%lld",
                      static_cast<long long>(e.i));
        break;
      case Type::kDouble:
        type = "double";
        std::snprintf(defbuf, sizeof defbuf, "%g", e.d);
        break;
      case Type::kBool:
        type = "bool";
        std::snprintf(defbuf, sizeof defbuf, "%s", e.b ? "true" : "false");
        break;
      case Type::kString:
        type = "string";
        std::snprintf(defbuf, sizeof defbuf, "%s", e.s.c_str());
        break;
    }
    std::fprintf(stderr, "  --%-24s %-7s (default %s) %s\n", name.c_str(),
                 type, defbuf, e.help.c_str());
  }
}

}  // namespace dctcpp

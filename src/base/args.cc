#include "base/args.hh"

#include <cstdlib>

#include "base/logging.hh"

namespace mobius
{

Args::Args(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionals_.push_back(arg);
            continue;
        }
        std::string key = arg.substr(2);
        std::string value = "true";
        auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        if (key.empty())
            fatal("empty option name in '%s'", arg.c_str());
        values_[key].push_back(value);
        used_[key] = false;
    }
}

bool
Args::has(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return false;
    used_[key] = true;
    return true;
}

const std::string *
Args::single(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return nullptr;
    used_[key] = true;
    if (it->second.size() > 1)
        fatal("--%s given %zu times; it takes a single value",
              key.c_str(), it->second.size());
    return &it->second.front();
}

std::string
Args::get(const std::string &key, const std::string &fallback) const
{
    const std::string *v = single(key);
    return v ? *v : fallback;
}

std::vector<std::string>
Args::getStrings(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return {};
    used_[key] = true;
    return it->second;
}

int
Args::getInt(const std::string &key, int fallback) const
{
    const std::string *s = single(key);
    if (s == nullptr)
        return fallback;
    char *end = nullptr;
    long v = std::strtol(s->c_str(), &end, 10);
    if (end == nullptr || end == s->c_str() || *end != '\0')
        fatal("--%s expects an integer, got '%s'", key.c_str(),
              s->c_str());
    return static_cast<int>(v);
}

double
Args::getDouble(const std::string &key, double fallback) const
{
    const std::string *s = single(key);
    if (s == nullptr)
        return fallback;
    char *end = nullptr;
    double v = std::strtod(s->c_str(), &end);
    if (end == nullptr || end == s->c_str() || *end != '\0')
        fatal("--%s expects a number, got '%s'", key.c_str(),
              s->c_str());
    return v;
}

int
Args::getIntIn(const std::string &key, int fallback, int lo,
               int hi) const
{
    int v = getInt(key, fallback);
    if (v < lo || v > hi)
        fatal("--%s must be in [%d, %d], got %d", key.c_str(), lo,
              hi, v);
    return v;
}

double
Args::getDoubleIn(const std::string &key, double fallback, double lo,
                  double hi) const
{
    double v = getDouble(key, fallback);
    if (!(lo <= v && v <= hi)) // NaN fails both comparisons
        fatal("--%s must be in [%g, %g], got %g", key.c_str(), lo,
              hi, v);
    return v;
}

std::vector<std::string>
Args::unusedKeys() const
{
    std::vector<std::string> out;
    for (const auto &[key, used] : used_) {
        if (!used)
            out.push_back(key);
    }
    return out;
}

void
Args::rejectUnused() const
{
    auto unused = unusedKeys();
    if (!unused.empty())
        fatal("unknown option --%s", unused.front().c_str());
}

} // namespace mobius
